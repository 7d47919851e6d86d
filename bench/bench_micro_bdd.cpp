// bench_micro_bdd.cpp — google-benchmark microbenchmarks for the BDD
// package: image computation and full reachability on scaling circuits.
#include <benchmark/benchmark.h>

#include "bdd/reach.hpp"
#include "bench_circuits/generators.hpp"

using namespace itpseq;

namespace {

void BM_BddBuildRelations(benchmark::State& state) {
  aig::Aig g = bench::token_ring(static_cast<unsigned>(state.range(0)), false);
  for (auto _ : state) {
    bdd::SymbolicModel m(g);
    benchmark::DoNotOptimize(m.init());
  }
}
BENCHMARK(BM_BddBuildRelations)->Arg(8)->Arg(16)->Arg(32);

void BM_BddImage(benchmark::State& state) {
  aig::Aig g = bench::counter(static_cast<unsigned>(state.range(0)),
                              (1ull << state.range(0)) - 3, 1);
  bdd::SymbolicModel m(g);
  bdd::BddRef s = m.init();
  for (auto _ : state) {
    bdd::BddRef img = m.image(s);
    benchmark::DoNotOptimize(img);
    s = m.mgr().apply_or(s, img);
  }
}
BENCHMARK(BM_BddImage)->Arg(6)->Arg(10)->Arg(14);

void BM_BddForwardReach(benchmark::State& state) {
  aig::Aig g = bench::counter(static_cast<unsigned>(state.range(0)),
                              (1ull << state.range(0)) - 3,
                              (1ull << state.range(0)) - 1);
  for (auto _ : state) {
    bdd::SymbolicModel m(g);
    bdd::ReachResult r = bdd::forward_reach(m);
    benchmark::DoNotOptimize(r);
  }
  state.counters["steps"] = static_cast<double>((1ull << state.range(0)) - 4);
}
BENCHMARK(BM_BddForwardReach)->Arg(5)->Arg(7)->Arg(9);

void BM_BddXorChain(benchmark::State& state) {
  for (auto _ : state) {
    bdd::BddManager m(static_cast<unsigned>(state.range(0)));
    bdd::BddRef f = m.bdd_true();
    for (unsigned i = 0; i < static_cast<unsigned>(state.range(0)); ++i)
      f = m.apply_xor(f, m.var(i));
    benchmark::DoNotOptimize(f);
  }
}
BENCHMARK(BM_BddXorChain)->Arg(16)->Arg(64)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
