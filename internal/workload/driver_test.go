package workload

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestDriveN(t *testing.T) {
	var calls atomic.Int64
	var clientsSeen atomic.Int64
	res := DriveN(4, 1000, func(id int) func() error {
		clientsSeen.Add(1)
		return func() error {
			if calls.Add(1)%10 == 0 {
				return errors.New("boom")
			}
			return nil
		}
	})
	if calls.Load() != 1000 {
		t.Fatalf("ops executed = %d, want exactly 1000", calls.Load())
	}
	if res.Commits+res.Errors != 1000 {
		t.Fatalf("commits(%d)+errors(%d) != 1000", res.Commits, res.Errors)
	}
	if res.Errors != 100 {
		t.Fatalf("errors = %d, want 100", res.Errors)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "boom") {
		t.Fatalf("aggregated Err = %v, want to contain the client error", res.Err)
	}
	if clientsSeen.Load() != 4 {
		t.Fatalf("newClient called %d times, want 4", clientsSeen.Load())
	}
	if res.TPS() <= 0 {
		t.Fatalf("TPS = %f, want > 0", res.TPS())
	}
}
