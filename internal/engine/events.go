package engine

import (
	"context"
	"sync"

	"repro/internal/telemetry"
)

// EventLog is a telemetry sink that keeps every event it receives and
// lets readers tail the log while it grows: each campaign gets one, and
// the service streams it to any number of subscribers without perturbing
// the campaign's deterministic event order. Close marks the log complete
// (the campaign finished); late readers still see the full history.
type EventLog struct {
	mu      sync.Mutex
	events  []telemetry.Event
	closed  bool
	waiters []chan struct{}
}

// NewEventLog returns an empty, open event log.
func NewEventLog() *EventLog { return &EventLog{} }

// Emit appends one event and wakes blocked readers. Events are
// normalised on the way in (non-finite floats become strings, exactly
// as the JSONL sink renders them) so a live SSE frame, the archived
// copy a restarted process replays, and the JSONL file all marshal to
// the same bytes.
func (l *EventLog) Emit(e telemetry.Event) {
	e = telemetry.FiniteEvent(e)
	l.mu.Lock()
	l.events = append(l.events, e)
	l.wakeLocked()
	l.mu.Unlock()
}

// Close marks the log complete and wakes blocked readers. It never
// fails; the error return satisfies telemetry.Sink.
func (l *EventLog) Close() error {
	l.mu.Lock()
	l.closed = true
	l.wakeLocked()
	l.mu.Unlock()
	return nil
}

// wakeLocked releases every waiter registered since the last change.
func (l *EventLog) wakeLocked() {
	for _, ch := range l.waiters {
		close(ch)
	}
	l.waiters = nil
}

// Len returns the number of events logged so far.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Since returns a copy of the events from offset n onward (n is a count
// of events already consumed) and whether the log is complete. A reader
// tails the log by alternating Since and Wait until closed.
func (l *EventLog) Since(n int) (events []telemetry.Event, closed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n < len(l.events) {
		events = make([]telemetry.Event, len(l.events)-n)
		copy(events, l.events[n:])
	}
	return events, l.closed
}

// Wait blocks until the log grows past n events, is closed, or ctx is
// done, and reports the context's error in the last case.
func (l *EventLog) Wait(ctx context.Context, n int) error {
	l.mu.Lock()
	if len(l.events) > n || l.closed {
		l.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	l.waiters = append(l.waiters, ch)
	l.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
