package faultinject

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestFailN(t *testing.T) {
	h := FailN(OpTrain, 2, nil)
	for i := 0; i < 2; i++ {
		if err := h(OpTrain); !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d: err = %v, want ErrInjected", i, err)
		}
	}
	if err := h(OpTrain); err != nil {
		t.Fatalf("call 3: err = %v, want nil", err)
	}
	if err := h(OpSnapshot); err != nil {
		t.Fatalf("other op failed: %v", err)
	}
}

func TestFailNCustomError(t *testing.T) {
	sentinel := errors.New("disk full")
	h := FailN(OpWALAppend, 1, sentinel)
	if err := h(OpWALAppend); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want %v", err, sentinel)
	}
}

func TestPanicN(t *testing.T) {
	h := PanicN(OpTrain, 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("first call did not panic")
			}
		}()
		h(OpTrain)
	}()
	if err := h(OpTrain); err != nil {
		t.Fatalf("second call: %v", err)
	}
}

func TestJoin(t *testing.T) {
	h := Join(nil, FailN(OpTrain, 1, nil), FailN(OpSnapshot, 1, nil))
	if err := h(OpSnapshot); !errors.Is(err, ErrInjected) {
		t.Fatalf("joined hook missed op: %v", err)
	}
	if err := h(OpTrain); !errors.Is(err, ErrInjected) {
		t.Fatalf("joined hook missed op: %v", err)
	}
	if err := h(OpTrain); err != nil {
		t.Fatalf("exhausted hook still failing: %v", err)
	}
}

func TestDelayN(t *testing.T) {
	h := DelayN(OpWALSyncLatency, 2, 20*time.Millisecond)
	start := time.Now()
	if err := h(OpWALSyncLatency); err != nil {
		t.Fatalf("delay hook failed the op: %v", err)
	}
	if err := h(OpDiskFull); err != nil {
		t.Fatalf("delay hook touched a foreign op: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("first matching call returned in %v; delay not applied", elapsed)
	}
	h(OpWALSyncLatency) // second delayed call exhausts the budget
	start = time.Now()
	h(OpWALSyncLatency)
	if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
		t.Errorf("exhausted delay hook still sleeping (%v)", elapsed)
	}
}

// PanicN returns a hook that panics on the first n invocations of op,
// simulating a crashing worker. Safe for concurrent use.
func PanicN(op Op, n int64) Hook {
	var count atomic.Int64
	return func(got Op) error {
		if got == op && count.Add(1) <= n {
			panic(fmt.Sprintf("faultinject: injected panic on %s", op))
		}
		return nil
	}
}

// Join runs hooks in order, returning the first error.
func Join(hooks ...Hook) Hook {
	return func(op Op) error {
		for _, h := range hooks {
			if h == nil {
				continue
			}
			if err := h(op); err != nil {
				return err
			}
		}
		return nil
	}
}
