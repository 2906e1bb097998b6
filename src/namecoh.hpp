// Umbrella header: the whole namecoh public API.
//
// Fine-grained includes are preferred inside the library itself; this
// header is for applications that want everything (the examples include
// exactly what they use instead, as documentation of minimal
// dependencies).
#pragma once

// §2 model and §3 closure mechanisms.
#include "core/closure.hpp"
#include "core/interner.hpp"
#include "core/graph_ops.hpp"
#include "core/name.hpp"
#include "core/naming_graph.hpp"
#include "core/resolve.hpp"

// Substrates.
#include "fs/file_system.hpp"
#include "fs/fsck.hpp"
#include "fs/snapshot.hpp"
#include "fs/union_dir.hpp"
#include "net/address.hpp"
#include "net/forwarding.hpp"
#include "net/topology.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "ns/name_service.hpp"
#include "ns/resolver_client.hpp"
#include "os/process_manager.hpp"
#include "os/program.hpp"
#include "os/service_registry.hpp"
#include "sim/simulator.hpp"

// Observability: typed trace events, spans, metrics, exporters.
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "obs/tracer.hpp"

// §5 schemes.
#include "schemes/crosslink.hpp"
#include "schemes/newcastle.hpp"
#include "schemes/per_process.hpp"
#include "schemes/shared_graph.hpp"
#include "schemes/single_graph.hpp"

// §4–§7 analysis.
#include "coherence/coherence.hpp"
#include "coherence/repair.hpp"
#include "embed/embedded.hpp"

// Workloads.
#include "workload/churn.hpp"
#include "workload/doc_gen.hpp"
#include "workload/tree_gen.hpp"
