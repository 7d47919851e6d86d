// factory.cpp — convenience entry points declared in engine.hpp.
#include "mc/bmc.hpp"
#include "mc/engine.hpp"
#include "mc/itp_verif.hpp"
#include "mc/itpseq_verif.hpp"
#include "mc/pdr.hpp"

namespace itpseq::mc {

EngineResult check_itp(const aig::Aig& model, std::size_t prop,
                       const EngineOptions& opts) {
  return ItpVerifEngine(model, prop, opts).run();
}

EngineResult check_itpseq(const aig::Aig& model, std::size_t prop,
                          const EngineOptions& opts) {
  EngineOptions o = opts;
  o.serial_alpha = 0.0;
  return ItpSeqEngine(model, prop, o).run();
}

EngineResult check_sitpseq(const aig::Aig& model, std::size_t prop,
                           EngineOptions opts) {
  if (opts.serial_alpha <= 0.0) opts.serial_alpha = 0.5;  // the paper's value
  return ItpSeqEngine(model, prop, opts).run();
}

EngineResult check_itpseq_cba(const aig::Aig& model, std::size_t prop,
                              EngineOptions opts) {
  if (opts.serial_alpha <= 0.0) opts.serial_alpha = 0.5;
  return ItpSeqEngine(model, prop, opts, AbstractionMode::kCba).run();
}

EngineResult check_itpseq_pba(const aig::Aig& model, std::size_t prop,
                              const EngineOptions& opts) {
  return ItpSeqEngine(model, prop, opts, AbstractionMode::kPba).run();
}

EngineResult check_bmc(const aig::Aig& model, std::size_t prop,
                       const EngineOptions& opts) {
  return BmcEngine(model, prop, opts).run();
}

EngineResult check_pdr(const aig::Aig& model, std::size_t prop,
                       const EngineOptions& opts) {
  return PdrEngine(model, prop, opts).run();
}

}  // namespace itpseq::mc
