package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/see"
)

// MaxBatchEntries bounds one POST /v1/compile/batch body; portfolio/DSE
// drivers wanting more issue several batches.
const MaxBatchEntries = 256

// BatchRequest is the body of POST /v1/compile/batch: many compile
// requests submitted at once. Entries are content-fingerprinted and
// identical ones (same DDG, machine and result-affecting options) are
// deduped onto a single scheduled job before any compile starts, so a
// DSE sweep that repeats configurations pays for each distinct one once.
// Batch entries are never traced: tracing bypasses the caches the
// dedup relies on.
type BatchRequest struct {
	Entries []CompileRequest `json:"entries"`
	// Async returns per-entry job IDs immediately instead of waiting for
	// the results; poll GET /v1/jobs/{id}.
	Async bool `json:"async,omitempty"`
}

// BatchEntryStatus reports one entry's outcome. Deduped entries carry
// the same job ID (and, synchronously, the same result bytes) as the
// first identical entry.
type BatchEntryStatus struct {
	Index    int             `json:"index"`
	JobID    string          `json:"job_id,omitempty"`
	State    State           `json:"state,omitempty"`
	CacheHit bool            `json:"cache_hit,omitempty"`
	Deduped  bool            `json:"deduped,omitempty"`
	Error    string          `json:"error,omitempty"`
	Field    string          `json:"field,omitempty"` // typed validation errors
	Result   json.RawMessage `json:"result,omitempty"`
}

// BatchResponse is the batch endpoint's reply: one status per entry, in
// input order, plus the dedup accounting.
type BatchResponse struct {
	Entries []BatchEntryStatus `json:"entries"`
	Unique  int                `json:"unique"`
	Deduped int                `json:"deduped"`
}

// handleBatch serves POST /v1/compile/batch. Entries fail individually —
// one malformed entry does not reject its siblings — except when every
// entry was turned away by backpressure, which surfaces as 503 so
// clients back off the whole batch.
func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	var batch BatchRequest
	if !s.decode(w, r, &batch) {
		return
	}
	if len(batch.Entries) == 0 {
		writeSubmitError(w, &see.OptionError{Field: "entries", Value: 0, Reason: "batch must contain at least one entry"})
		return
	}
	if len(batch.Entries) > MaxBatchEntries {
		writeSubmitError(w, &see.OptionError{Field: "entries", Value: len(batch.Entries), Reason: "too many batch entries"})
		return
	}

	// Async batches must outlive this HTTP exchange; sync ones share its
	// lifetime (a disconnect cancels every compile the batch scheduled).
	parent := r.Context()
	if batch.Async {
		parent = context.WithoutCancel(r.Context())
	}

	resp := BatchResponse{Entries: make([]BatchEntryStatus, len(batch.Entries))}
	byKey := make(map[string]int)              // fingerprint → first entry index
	jobs := make([]*Job, len(batch.Entries))   // scheduled job per unique entry
	firstOf := make([]int, len(batch.Entries)) // entry → its first identical sibling
	rejected := 0                              // unique entries turned away by backpressure
	for i, entry := range batch.Entries {
		st := &resp.Entries[i]
		st.Index = i
		firstOf[i] = i
		entry.Async = batch.Async
		entry.Trace = false
		wk, err := entry.work(s.cfg.DefaultEngine)
		if err != nil {
			st.Error = err.Error()
			var oe *see.OptionError
			if errors.As(err, &oe) {
				st.Field = oe.Field
			}
			continue
		}
		if first, ok := byKey[wk.key]; ok {
			st.Deduped = true
			firstOf[i] = first
			resp.Deduped++
			// Mirror a failed sibling's error so the entry is not
			// silently empty.
			st.Error = resp.Entries[first].Error
			st.Field = resp.Entries[first].Field
			continue
		}
		byKey[wk.key] = i
		job, err := s.submit(parent, wk)
		if err != nil {
			st.Error = err.Error()
			if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed) {
				rejected++
			}
			continue
		}
		jobs[i] = job
		st.JobID = job.ID
	}
	resp.Unique = len(byKey)
	s.metrics.update(func(c *Snapshot) {
		c.BatchEntries += int64(len(batch.Entries))
		c.BatchDeduped += int64(resp.Deduped)
	})

	if rejected > 0 && rejected == resp.Unique {
		// Every schedulable entry hit backpressure: tell the client to
		// back off rather than hand back a batch of individual failures.
		writeError(w, http.StatusServiceUnavailable, ErrQueueFull.Error())
		return
	}

	if !batch.Async {
		for _, job := range jobs {
			if job == nil {
				continue
			}
			if err := job.Wait(r.Context()); err != nil {
				writeError(w, http.StatusGatewayTimeout, err.Error())
				return
			}
		}
	}

	// Fill terminal details; deduped entries mirror their first sibling.
	for i := range resp.Entries {
		st := &resp.Entries[i]
		job := jobs[firstOf[i]]
		if job == nil {
			continue
		}
		jst := job.Status()
		st.JobID = jst.ID
		st.State = jst.State
		st.CacheHit = jst.CacheHit
		if jst.Error != "" {
			st.Error = jst.Error
		}
		if !batch.Async && jst.State == StateDone {
			body, _ := job.Result()
			st.Result = body
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
