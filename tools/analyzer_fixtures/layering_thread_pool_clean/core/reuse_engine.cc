// Fixture: core runs sharing windows on the pool.
#include "common/thread_pool.h"
