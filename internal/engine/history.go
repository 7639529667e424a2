package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/harness"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// archive is the persisted form of one terminal campaign: everything
// the service endpoints need to answer for it after a restart. Records
// are the journal-shaped results (JSON-safe by construction) and
// Events the full event log, already normalised by EventLog.Emit, so
// a restarted process re-serves both byte-identically - an SSE client
// resuming with Last-Event-ID across the restart sees the exact
// frames it would have seen live.
type archive struct {
	ID        string                  `json:"id"`
	Name      string                  `json:"name"`
	State     State                   `json:"state"`
	Error     string                  `json:"error,omitempty"`
	Jobs      int                     `json:"jobs"`
	Completed int                     `json:"completed"`
	Records   []harness.JournalRecord `json:"records,omitempty"`
	Events    []telemetry.Event       `json:"events,omitempty"`
}

// archivePath is the campaign's history file: one JSON document per
// campaign, named by ID so boot-time loading is order-independent.
func (e *Engine) archivePath(id string) string {
	return filepath.Join(e.opts.HistoryDir, id+".json")
}

// archiveCampaign persists a campaign that just reached a terminal
// state. It is write-ahead in spirit but best-effort in practice: a
// history write failure never fails the campaign (the results are
// still live in memory), it is counted and surfaced through Health so
// /healthz can report degraded durability. The write is crash-safe:
// temp file, fsync, rename, parent-directory fsync - a crash leaves
// either the old state or the new file, never a torn document.
func (e *Engine) archiveCampaign(c *campaign) {
	if e.opts.HistoryDir == "" {
		return
	}
	c.mu.Lock()
	a := archive{
		ID:        c.id,
		Name:      c.name,
		State:     c.state,
		Jobs:      c.jobs,
		Completed: c.completed,
	}
	if c.err != nil {
		a.Error = c.err.Error()
	}
	for i, ok := range c.filled {
		if ok {
			a.Records = append(a.Records, c.records[i])
		}
	}
	c.mu.Unlock()
	a.Events, _ = c.events.Since(0)

	if err := e.writeArchive(a); err != nil {
		e.mu.Lock()
		e.histWriteErrs++
		e.histLastErr = err.Error()
		e.mu.Unlock()
	}
}

// writeArchive writes one archive document with full fsync discipline.
func (e *Engine) writeArchive(a archive) error {
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("engine: marshal campaign %s archive: %w", a.ID, err)
	}
	path := e.archivePath(a.ID)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("engine: create campaign archive: %w", err)
	}
	if _, err := f.Write(append(b, '\n')); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("engine: write campaign archive: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("engine: close campaign archive: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("engine: publish campaign archive: %w", err)
	}
	if err := store.SyncParentDir(path); err != nil {
		return fmt.Errorf("engine: sync history directory: %w", err)
	}
	return nil
}

// loadHistory restores archived campaigns on boot. A corrupt archive
// is quarantined (renamed aside with a .corrupt suffix) and counted,
// never a reason to refuse to start - the same policy the result
// store applies to corrupt segments. Restored campaigns answer
// Status, Results, Err, and Events exactly as the process that ran
// them would; artifacts that need live state (Trace, Profile,
// CacheDiag, WriteMetrics) report ErrArchived. The ID counter resumes
// past the highest archived ID so new submissions never collide.
func (e *Engine) loadHistory() {
	dir := e.opts.HistoryDir
	if dir == "" {
		return
	}
	if err := store.EnsureDir(dir); err != nil {
		e.histLoadErrs++
		e.histLastErr = err.Error()
		return
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		e.histLoadErrs++
		e.histLastErr = err.Error()
		return
	}
	names := make([]string, 0, len(ents))
	for _, ent := range ents {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), ".json") {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, name)
		a, err := readArchive(path)
		if err != nil {
			e.histLoadErrs++
			e.histLastErr = err.Error()
			// Quarantine the corrupt archive and make the rename durable:
			// without the dir fsync a crash could resurrect it and fail
			// every subsequent load the same way.
			if os.Rename(path, path+".corrupt") == nil {
				store.SyncDir(dir)
			}
			continue
		}
		c := restoreCampaign(a)
		e.campaigns[c.id] = c
		e.order = append(e.order, c.id)
		if n, ok := campaignNumber(c.id); ok && n > e.counter {
			e.counter = n
		}
	}
}

// readArchive loads, strictly decodes, and checks one archive document.
// It accepts only what archiveCampaign can have written: one JSON
// document, with no unknown field and nothing after it, that passes
// archive.check.
func readArchive(path string) (archive, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return archive{}, err
	}
	name := filepath.Base(path)
	var a archive
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&a); err != nil {
		return archive{}, fmt.Errorf("engine: archive %s: %w", name, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return archive{}, fmt.Errorf("engine: archive %s: data after the document", name)
	}
	if err := a.check(name); err != nil {
		return archive{}, fmt.Errorf("engine: archive %s: %w", name, err)
	}
	return a, nil
}

// check refuses an archive that archiveCampaign cannot have written to
// the file called name. A written archive's ID names its file, its state
// is terminal, it holds one record per completed job and no more records
// than jobs, and its events are numbered 1, 2, ... in order. The last
// matters to every SSE client: a resume position counts events, so a log
// whose numbers skip or repeat would serve a resumed client the wrong
// frames.
func (a archive) check(name string) error {
	switch {
	case a.ID == "" || a.ID+".json" != name:
		return fmt.Errorf("id %q does not name the file", a.ID)
	case !a.State.Terminal():
		return fmt.Errorf("non-terminal state %q", a.State)
	case a.Jobs < 0 || a.Completed != len(a.Records) || len(a.Records) > a.Jobs:
		return fmt.Errorf("%d records for %d completed of %d jobs", len(a.Records), a.Completed, a.Jobs)
	}
	for i, ev := range a.Events {
		if ev.Seq != uint64(i+1) {
			return fmt.Errorf("event %d carries seq %d", i+1, ev.Seq)
		}
	}
	return nil
}

// restoreCampaign rebuilds a serveable campaign from its archive: the
// event log is replayed and closed (so SSE tails and Last-Event-ID
// resumes work immediately), the done channel is pre-closed, and the
// records slice answers Results in the original order.
func restoreCampaign(a archive) *campaign {
	c := &campaign{
		id:        a.ID,
		name:      a.Name,
		cancel:    func(error) {},
		events:    NewEventLog(),
		done:      make(chan struct{}),
		jobs:      a.Jobs,
		archived:  true,
		state:     a.State,
		completed: a.Completed,
		records:   a.Records,
		filled:    make([]bool, len(a.Records)),
	}
	for i := range c.filled {
		c.filled[i] = true
	}
	if a.Error != "" {
		c.err = errors.New(a.Error)
	}
	for _, ev := range a.Events {
		c.events.Emit(ev)
	}
	c.events.Close()
	close(c.done)
	return c
}

// campaignNumber parses the numeric part of a "c0042"-style ID.
func campaignNumber(id string) (int, bool) {
	if !strings.HasPrefix(id, "c") {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// Health is a point-in-time view of the engine's service health for
// the /healthz endpoint: whether it still accepts work and whether
// campaign history persistence is keeping up.
type Health struct {
	// Draining reports that Drain or Close sealed the engine; new
	// submissions are refused.
	Draining bool `json:"draining"`
	// Campaigns counts every campaign the engine knows, archived ones
	// included.
	Campaigns int `json:"campaigns"`
	// Archived counts campaigns restored from history at boot.
	Archived int `json:"archived"`
	// HistoryWriteErrors counts terminal campaigns whose archive write
	// failed (their results stayed live in memory only).
	HistoryWriteErrors uint64 `json:"history_write_errors"`
	// HistoryLoadErrors counts corrupt archives quarantined at boot.
	HistoryLoadErrors uint64 `json:"history_load_errors"`
	// LastHistoryError is the most recent history read or write
	// failure, empty while persistence is healthy.
	LastHistoryError string `json:"last_history_error,omitempty"`
}

// Healthy reports whether history persistence has seen no errors.
func (h Health) Healthy() bool {
	return h.HistoryWriteErrors == 0 && h.HistoryLoadErrors == 0
}

// Health snapshots the engine's service health.
func (e *Engine) Health() Health {
	e.mu.Lock()
	defer e.mu.Unlock()
	h := Health{
		Draining:           e.draining,
		Campaigns:          len(e.campaigns),
		HistoryWriteErrors: e.histWriteErrs,
		HistoryLoadErrors:  e.histLoadErrs,
		LastHistoryError:   e.histLastErr,
	}
	for _, c := range e.campaigns {
		if c.archived {
			h.Archived++
		}
	}
	return h
}
