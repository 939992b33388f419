// Stored logical-error-rate references of the campaign correctness gates.
//
// Each entry is the pooled rate of one group of campaign cells, measured
// over many seeds (`radbench --calibrate`), with its shot count and, for
// groups whose cells are random realizations, the between-realization
// variance of the per-realization rate.  A run passes a group when its
// pooled rate lies within kLerZBound standard errors of the reference, so
// a legitimate change of the sampler's RNG streams still passes while a
// decoding or sampling bug does not.  With about 15 gated groups per run
// and a few hundred runs per benchmark round, z = 5.5 keeps the expected
// number of false failures per round below 1e-3 (two-sided normal tail
// 3.8e-8 per gate).
#pragma once

#include <cstring>
#include <string>

namespace radbench {

inline constexpr double kLerZBound = 5.5;

struct LerReference {
  const char* group;
  double ler;
  double shots;
  double between_var;
};

inline constexpr LerReference kLerReferences[] = {
    {"paper_sweep/rep5/intrinsic", 0.0376325335, 86016, 0},
    {"paper_sweep/rep5/event", 0.128448428, 8601600, 0},
    {"paper_sweep/rep5/erasure", 0.101361375, 860160, 0},
    {"paper_sweep/xxzz33/intrinsic", 0.0929129464, 86016, 0},
    {"paper_sweep/xxzz33/event", 0.198953618, 15482880, 0},
    {"paper_sweep/xxzz33/erasure", 0.118310676, 1548288, 0},
    {"paper_sweep/rep15/intrinsic", 0.101039342, 86016, 0},
    {"paper_sweep/rep15/event", 0.182291977, 25804800, 0},
    {"paper_sweep/rep15/erasure", 0.154440259, 2580480, 0},
    {"strike_rotated_d17/strike", 0.0117918042, 58176, 0},
    {"burst_aware_d5/heralded", 0.152272403, 112128, 0.0151118856},
    {"burst_aware_d5/quiet", 0.000444135274, 186880, 0},
};

inline const LerReference* find_reference(const char* group) {
  for (const LerReference& r : kLerReferences)
    if (std::strcmp(r.group, group) == 0) return &r;
  return nullptr;
}
inline const LerReference* find_reference(const std::string& group) {
  return find_reference(group.c_str());
}

}  // namespace radbench
