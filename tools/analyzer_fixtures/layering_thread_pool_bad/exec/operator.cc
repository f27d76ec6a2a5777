// Fixture: exec may include common, but not the thread pool; operators run
// serially.
#include "common/status.h"
#include "common/thread_pool.h"
