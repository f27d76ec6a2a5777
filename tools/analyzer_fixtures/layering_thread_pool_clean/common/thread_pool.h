// Fixture: the pool itself lives in common.
class ThreadPool {};
