// Provenance weaving for the fluent dataflow builder (spe/dataflow.h).
//
// LowerDataflow turns a recorded logical plan into runnable topologies,
// inserting the GeneaLog machinery the paper derives instead of making the
// query author wire it:
//
//  * kNone — operators are wired as declared; edges crossing deployment
//    instances become Send ~channel~ Receive pairs.
//  * kGenealog — per Theorem 5.3 an SU is interposed before the sink: its SO
//    output feeds the sink unchanged, its U (unfolded) output feeds the
//    provenance sink. Intra-process, the provenance sink lives in the same
//    instance. Across instances (§6, Figure 7): a dedicated provenance
//    instance (max user instance + 1) hosts an MU + the provenance sink; the
//    sink-side SU's U stream is sent to the MU's derived port (port 0), and
//    every instance-crossing data edge gets its own SU whose SO continues to
//    the consumer over the data channel while its U stream feeds the next MU
//    upstream port (ports 1..). The MU join window is the stateful window
//    span of the sink's instance (§6.1); the finalize slack is the plan's
//    total stateful span. The upstream U streams are pulled, not pushed
//    (genealog/pull.h): each crossing SU retains its delivering tuples, the
//    derived stream's Receive asks for the REMOTE origins it names over the
//    reverse direction of every upstream U channel, and a serving node
//    "send.U<n>" at the edge ships just those, unfolded.
//  * kBaseline — every source is tapped (Multiplex) and a tap copy of the
//    annotated sink stream plus every source stream feed the baseline
//    resolver (port 0 = sink stream, ports 1.. = source streams, the order
//    BaselineResolverNode requires); in distributed deployments the resolver
//    lives on the provenance instance and the source streams ship whole over
//    channels — the paper's §7 baseline network cost.
//
// SU and MU are always the fused operators §5.1 recommends; the literal
// Figure 5B / Figure 8 constructions (BuildComposedSu/BuildComposedMu) are
// node-level reference implementations for the SU and MU tests.
#ifndef GENEALOG_GENEALOG_INSTRUMENT_H_
#define GENEALOG_GENEALOG_INSTRUMENT_H_

#include "spe/dataflow.h"

namespace genealog {

// Lowers `plan` into `out` (empty on entry). Called by Dataflow::Build after
// validation; the plan is structurally sound by the time it gets here.
void LowerDataflow(const dataflow_internal::Plan& plan, BuiltDataflow& out);

}  // namespace genealog

#endif  // GENEALOG_GENEALOG_INSTRUMENT_H_
