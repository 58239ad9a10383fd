package obsv

import (
	"context"
	"errors"
	"testing"
	"time"
)

func newRequestContext(parent context.Context) *RequestContext {
	c := new(RequestContext)
	c.Init(parent, "0123456789abcdef")
	return c
}

// closes reports whether ch closes within a second.
func closes(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	case <-time.After(time.Second):
		return false
	}
}

// TestRequestContextDeadline: Err polls the deadline with no timer armed;
// Done, once asked for, closes when the deadline passes; a context derived
// with WithTimeout ends with it.
func TestRequestContextDeadline(t *testing.T) {
	c := newRequestContext(context.Background())
	if _, ok := c.Deadline(); ok || c.Err() != nil {
		t.Fatal("a fresh request context has a deadline or an error")
	}
	c.SetTimeout(5 * time.Millisecond)
	if d, ok := c.Deadline(); !ok || time.Until(d) > 5*time.Millisecond {
		t.Fatalf("Deadline() = %v, %v", d, ok)
	}
	if c.done != nil || c.timer != nil {
		t.Fatal("SetTimeout armed a timer before anyone asked for Done")
	}
	time.Sleep(10 * time.Millisecond)
	if err := c.Err(); err != context.DeadlineExceeded {
		t.Fatalf("Err() past the deadline = %v", err)
	}
	if !closes(c.Done()) {
		t.Fatal("Done of an expired context is open")
	}
	c.End()
	if c.Err() != context.DeadlineExceeded {
		t.Fatal("End changed the error of an expired context")
	}

	c = newRequestContext(context.Background())
	c.SetTimeout(5 * time.Millisecond)
	derived, cancel := context.WithTimeout(c, time.Hour)
	defer cancel()
	if !closes(derived.Done()) || !errors.Is(derived.Err(), context.DeadlineExceeded) || c.Err() != context.DeadlineExceeded {
		t.Fatalf("derived context after the deadline: %v, request context %v", derived.Err(), c.Err())
	}
	c.End()
}

// TestRequestContextParentAndEnd: a cancelled parent (a client gone) reads
// as Canceled whether polled or waited on, End cancels, and the parent's
// values and earlier deadline show through.
func TestRequestContextParentAndEnd(t *testing.T) {
	type key struct{}
	parent, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, "v"))
	c := newRequestContext(parent)
	if c.Value(key{}) != "v" {
		t.Fatal("the parent's value is lost")
	}
	done := c.Done()
	cancel()
	if !closes(done) || c.Err() != context.Canceled {
		t.Fatalf("parent cancelled: Err() = %v", c.Err())
	}

	parent, cancel = context.WithCancel(context.Background())
	c = newRequestContext(parent)
	cancel()
	if c.Err() != context.Canceled {
		t.Fatalf("polled after the parent's cancel: Err() = %v", c.Err())
	}
	if !closes(c.Done()) {
		t.Fatal("Done of a cancelled context is open")
	}

	c = newRequestContext(context.Background())
	done = c.Done()
	c.End()
	if !closes(done) || c.Err() != context.Canceled {
		t.Fatalf("after End: Err() = %v", c.Err())
	}
	c.End() // idempotent

	early := time.Now().Add(time.Minute)
	parent, cancel = context.WithDeadline(context.Background(), early)
	defer cancel()
	c = newRequestContext(parent)
	c.SetTimeout(time.Hour)
	if d, ok := c.Deadline(); !ok || !d.Equal(early) {
		t.Fatalf("Deadline() = %v, want the parent's earlier %v", d, early)
	}
	c.End()
}

// TestAppendRequestIDAllocs: generating an ID into a caller's buffer
// allocates nothing.
func TestAppendRequestIDAllocs(t *testing.T) {
	var buf [16]byte
	if n := testing.AllocsPerRun(100, func() { AppendRequestID(buf[:0]) }); n != 0 {
		t.Fatalf("AppendRequestID allocates %.0f objects", n)
	}
}
