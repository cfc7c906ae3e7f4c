package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"repro/internal/see"
)

// Handler returns the daemon's HTTP API:
//
//	POST /v1/compile        submit a compile (sync by default; "async":
//	                        true returns 202 with a job to poll; ?trace=1
//	                        records the run and embeds the telemetry
//	                        summary)
//	POST /v1/compile/batch  submit many compiles at once; identical
//	                        entries are fingerprint-deduped and scheduled
//	                        once (see handleBatch)
//	POST /v1/explore        sweep one kernel against a fabric parameter
//	                        grid (bounded point count) and return the
//	                        per-point results plus the MII-vs-cost Pareto
//	                        front; same sync/async semantics as compile
//	GET  /v1/jobs/{id}      poll a job's state and, once done, its result
//	GET  /metrics           counters, cache occupancy, latency percentiles
//	GET  /healthz           liveness probe
//
// Synchronous responses carry the report JSON as the entire body — the
// exact cached bytes, so identical requests get byte-identical payloads —
// with the job ID and cache disposition in X-Hca-Job and X-Hca-Cache
// headers. cmd/hcad wraps this handler in the middleware chain
// (internal/service/middleware) and, in fleet mode, in ShardedHandler.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", s.handleCompile)
	mux.HandleFunc("/v1/compile/batch", s.handleBatch)
	mux.HandleFunc("/v1/explore", s.handleExplore)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// ErrorBody is the JSON error envelope every non-2xx response carries.
// For validation failures the typed *see.OptionError structure survives
// the wire: Field and Reason are set alongside the flat message.
type ErrorBody struct {
	Error  string `json:"error"`
	Field  string `json:"field,omitempty"`
	Reason string `json:"reason,omitempty"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorBody{Error: msg})
}

// writeSubmitError maps a submission error onto the HTTP surface:
// backpressure → 503, oversized body → 413, typed validation errors →
// 400 with the *see.OptionError fields preserved, anything else → 400.
func writeSubmitError(w http.ResponseWriter, err error) {
	var oe *see.OptionError
	var mbe *http.MaxBytesError
	switch {
	case errors.Is(err, ErrClosed), errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.As(err, &mbe):
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
	case errors.As(err, &oe):
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error(), Field: oe.Field, Reason: oe.Reason})
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

// decode reads a POST body into v: it rejects other methods (405),
// bodies past MaxBodyBytes (413), and malformed JSON or unknown fields
// (400), answering those itself. It reports whether the handler should
// go on.
func (s *Service) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, err.Error())
		} else {
			writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		}
		return false
	}
	return true
}

func (s *Service) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if !s.decode(w, r, &req) {
		return
	}
	// ?trace=1 records the compile and folds the telemetry summary into
	// the report, equivalent to "trace": true in the body.
	if v := r.URL.Query().Get("trace"); v == "1" || v == "true" {
		req.Trace = true
	}
	wk, err := req.work(s.cfg.DefaultEngine)
	s.reply(w, r, wk, err)
}

// reply submits the work built from an HTTP request (or reports why it
// could not be built) and answers: 202 with the job's status when async,
// otherwise the result once the job is terminal.
func (s *Service) reply(w http.ResponseWriter, r *http.Request, wk *work, err error) {
	var job *Job
	if err == nil {
		// An async job must outlive this HTTP exchange; a sync one dies
		// with the client (disconnects cancel the run instead of burning
		// a worker on an unwanted result). WithoutCancel detaches the job
		// from the exchange while keeping request-scoped values (trace
		// recorder) flowing.
		parent := r.Context()
		if wk.async {
			parent = context.WithoutCancel(parent)
		}
		job, err = s.submit(parent, wk)
	}
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	if wk.async {
		writeJSON(w, http.StatusAccepted, job.Status())
		return
	}
	if err := job.Wait(r.Context()); err != nil {
		// The client went away; the job context (derived from it) is
		// already cancelled and the worker will abandon the run.
		writeError(w, http.StatusGatewayTimeout, err.Error())
		return
	}
	s.writeJobResult(w, job)
}

// writeJobResult renders a terminal job: the raw report bytes on
// success, an error envelope otherwise.
func (s *Service) writeJobResult(w http.ResponseWriter, job *Job) {
	body, hit := job.Result()
	w.Header().Set("X-Hca-Job", job.ID)
	switch job.State() {
	case StateDone:
		if hit {
			w.Header().Set("X-Hca-Cache", "hit")
		} else {
			w.Header().Set("X-Hca-Cache", "miss")
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
		// Trailing newline, so the body is byte-for-byte what
		// `cmd/hca -json` prints. Written outside the cached bytes:
		// hits and misses both pass through here.
		w.Write([]byte("\n"))
	case StateCancelled:
		writeError(w, http.StatusGatewayTimeout, "compile cancelled: "+job.Err())
	default:
		writeError(w, http.StatusUnprocessableEntity, "compile failed: "+job.Err())
	}
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	job, ok := s.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	st := job.Status()
	if st.State == StateDone {
		body, _ := job.Result()
		writeJSON(w, http.StatusOK, struct {
			Status
			Result json.RawMessage `json:"result"`
		}{st, body})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
