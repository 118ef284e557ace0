package analysis

import "testing"

// TestLockHold covers channel ops, pool.Queue calls, and I/O under held
// runcache/server/pool mutexes — including deferred unlocks, an
// early-unlock branch, and a flight group that waits under its lock — plus
// the snapshot-then-communicate shapes and the queue's own locked helpers
// that must stay silent.
func TestLockHold(t *testing.T) {
	res, err := RunTest("testdata", LockHold, "runcache", "server", "pool")
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatal("\n" + res.String())
	}
}
