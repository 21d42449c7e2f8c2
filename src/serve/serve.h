// Umbrella header for the serve subsystem: a multi-tenant asynchronous
// job service (queue -> fair-share scheduler -> worker threads) over the
// exec layer. See docs/ARCHITECTURE.md "Serve layer".
#ifndef QS_SERVE_SERVE_H
#define QS_SERVE_SERVE_H

#include "serve/job.h"           // IWYU pragma: export
#include "serve/job_queue.h"     // IWYU pragma: export
#include "serve/result_store.h"  // IWYU pragma: export
#include "serve/service.h"       // IWYU pragma: export

#endif  // QS_SERVE_SERVE_H
