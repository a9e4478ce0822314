#ifndef URPSM_SRC_WORKLOAD_IO_H_
#define URPSM_SRC_WORKLOAD_IO_H_

#include <string>

#include "src/core/urpsm.h"

namespace urpsm {

/// Plain-text instance format, one section per entity kind:
///
///   urpsm-instance v1
///   name <string>
///   vertices <n>
///   <x> <y>                (n lines)
///   edges <m>
///   <u> <v> <length_km> <class>   (m lines)
///   workers <k>
///   <vertex> <capacity>    (k lines; ids are line order)
///   requests <q>
///   <origin> <dest> <release> <deadline> <penalty> <capacity>  (q lines)
///
/// Used to persist generated workloads so benchmark sweeps are replayable
/// and to exchange instances with external tooling.
bool SaveInstance(const Instance& instance, const std::string& path);

/// Loads an instance; returns false (and leaves `out` untouched) on parse
/// or I/O failure, or when an edge endpoint, worker start or request
/// endpoint is not a vertex id in [0, vertices). Requests are kept in file
/// order: Simulation requires them sorted by release time.
bool LoadInstance(const std::string& path, Instance* out);

}  // namespace urpsm

#endif  // URPSM_SRC_WORKLOAD_IO_H_
