// Fixture: obs installs the pool's telemetry hooks.
#include "common/thread_pool.h"
