// Umbrella public header for the quditsim library.
//
// Include this to get the full public API; individual module headers can
// be included instead for faster builds.
#ifndef QS_CORE_QUDITSIM_H
#define QS_CORE_QUDITSIM_H

// Substrates.
#include "common/require.h"        // IWYU pragma: export
#include "common/rng.h"            // IWYU pragma: export
#include "common/stats.h"          // IWYU pragma: export
#include "common/stopwatch.h"      // IWYU pragma: export
#include "common/table.h"          // IWYU pragma: export
#include "linalg/eigen.h"          // IWYU pragma: export
#include "linalg/expm.h"           // IWYU pragma: export
#include "linalg/matrix.h"         // IWYU pragma: export
#include "linalg/metrics.h"        // IWYU pragma: export
#include "linalg/real_matrix.h"    // IWYU pragma: export
#include "linalg/types.h"          // IWYU pragma: export
#include "qudit/density_matrix.h"  // IWYU pragma: export
#include "qudit/space.h"           // IWYU pragma: export
#include "qudit/state_vector.h"    // IWYU pragma: export

// Gates, circuits, noise, dynamics.
#include "circuit/circuit.h"       // IWYU pragma: export
#include "circuit/state_prep.h"    // IWYU pragma: export
#include "dynamics/hamiltonian.h"  // IWYU pragma: export
#include "dynamics/lindblad.h"     // IWYU pragma: export
#include "dynamics/trotter.h"      // IWYU pragma: export
#include "gates/bosonic.h"         // IWYU pragma: export
#include "gates/clifford.h"        // IWYU pragma: export
#include "gates/qudit_gates.h"     // IWYU pragma: export
#include "gates/two_qudit.h"       // IWYU pragma: export
#include "noise/channels.h"        // IWYU pragma: export
#include "noise/mitigation.h"      // IWYU pragma: export
#include "noise/noise_model.h"     // IWYU pragma: export

// Execution subsystem (backends + sessions).
#include "exec/exec.h"             // IWYU pragma: export

// Serve subsystem (multi-tenant job service over exec).
#include "serve/serve.h"           // IWYU pragma: export

// Calibration & characterization subsystem.
#include "calib/calib.h"           // IWYU pragma: export

// Hardware platform and compilation.
#include "compiler/passes.h"           // IWYU pragma: export
#include "compiler/pipeline.h"         // IWYU pragma: export
#include "compiler/transpile_cache.h"  // IWYU pragma: export
#include "compiler/mapping.h"          // IWYU pragma: export
#include "compiler/routing.h"          // IWYU pragma: export
#include "compiler/scheduler.h"        // IWYU pragma: export
#include "hardware/processor.h"        // IWYU pragma: export
#include "synth/csum_plan.h"           // IWYU pragma: export
#include "synth/snap_displacement.h"   // IWYU pragma: export

// Applications.
#include "qaoa/coloring_qaoa.h"           // IWYU pragma: export
#include "qaoa/graph.h"                   // IWYU pragma: export
#include "qaoa/ndar.h"                    // IWYU pragma: export
#include "qaoa/qrac.h"                    // IWYU pragma: export
#include "qrc/esn.h"                      // IWYU pragma: export
#include "qrc/readout.h"                  // IWYU pragma: export
#include "qrc/reservoir.h"                // IWYU pragma: export
#include "qrc/tasks.h"                    // IWYU pragma: export
#include "qrc/transmon_probe.h"           // IWYU pragma: export
#include "resources/estimator.h"          // IWYU pragma: export
#include "sqed/encodings.h"               // IWYU pragma: export
#include "sqed/gauge_model.h"             // IWYU pragma: export
#include "sqed/massgap.h"                 // IWYU pragma: export
#include "tomo/reservoir_tomography.h"    // IWYU pragma: export

#endif  // QS_CORE_QUDITSIM_H
