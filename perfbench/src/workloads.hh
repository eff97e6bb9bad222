/**
 * @file
 * The four workloads. Each generates its inputs from the options,
 * reports set-up time from process start, runs whole rounds until
 * opt.seconds have passed, and checks every output it produces.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "perfbench/src/harness.hh"

namespace perfbench {

Result runTablesCold(const Options &opt);
Result runRegenAfterEdit(const Options &opt);
Result runRewriteWide(const Options &opt);
Result runServiceMix(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
