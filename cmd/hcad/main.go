// Command hcad serves Hierarchical Cluster Assignment compiles over
// HTTP: a bounded worker pool, a content-addressed result cache and an
// in-process metrics registry (see internal/service) behind a JSON API,
// hardened by a middleware stack (panic recovery, request logging,
// per-client rate limiting, request timeouts) and optionally durable
// and fleet-sharded.
//
//	hcad -addr :8080 -workers 8 -cache 512
//
//	curl -s localhost:8080/v1/compile -d '{"kernel":"fir2dim","options":{"schedule":true}}'
//	curl -s localhost:8080/v1/compile/batch -d '{"entries":[{"kernel":"fir2dim"},{"kernel":"idcthor"}]}'
//	curl -s localhost:8080/v1/explore -d '{"kernel":"fir2dim","grid":{"k":[8,6,4,2]}}'
//	curl -s localhost:8080/v1/jobs/job-000002
//	curl -s localhost:8080/metrics
//
// With -data-dir, results and job state survive restarts: compiled
// reports land in a content-addressed store under <dir>/results (the
// LRU is warmed from it on boot) and job state transitions are
// journaled to <dir>/jobs.jsonl and replayed on boot.
//
// With -self and -peers, N hcad nodes consistent-hash the request
// fingerprint keyspace: each compile has one owner node fleet-wide, so
// a DSE sweep spread over the fleet computes each distinct
// configuration once. A dead owner degrades to local computation.
//
//	hcad -addr :8080 -data-dir /var/lib/hcad \
//	     -self 10.0.0.1:8080 -peers 10.0.0.1:8080,10.0.0.2:8080
//
// Every flag can also come from an HCAD_* environment variable (dashes
// become underscores: -job-ttl reads HCAD_JOB_TTL); the command line
// wins when both are set.
//
// SIGTERM/SIGINT drain gracefully: the listener stops accepting, every
// in-flight compile finishes and delivers its response, the job journal
// is synced, then the process exits.
//
// -pprof serves Go's runtime profiles (CPU, heap, goroutine, trace) on a
// separate listener with its own mux, so the diagnostics port can stay
// firewalled off while the API port is exposed — and so the profiling
// handlers are never registered on the API mux at all:
//
//	hcad -addr :8080 -pprof localhost:6060
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//	go tool pprof http://localhost:6060/debug/pprof/heap
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/service/middleware"
	"repro/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 4, "concurrent compile workers")
		queue    = flag.Int("queue", 64, "job queue depth (backpressure bound)")
		cacheSz  = flag.Int("cache", 256, "result cache capacity (entries)")
		timeout  = flag.Duration("timeout", 2*time.Minute, "default per-compile timeout")
		drainFor = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
		pprofAt  = flag.String("pprof", "", "serve /debug/pprof on this address (own mux; empty = off)")

		dataDir = flag.String("data-dir", "", "durable store directory (empty = memory only)")
		jobTTL  = flag.Duration("job-ttl", 0, "evict terminal jobs this long after finishing (0 = keep until -max-jobs prunes)")
		maxJobs = flag.Int("max-jobs", 1024, "terminal-job history bound (also the job journal's replay bound)")
		maxBody = flag.Int64("max-body", 1<<20, "max HTTP request body bytes")
		defEng  = flag.String("default-engine", "", "engine for requests that leave options.engine unset: see, exact, or portfolio (beam, then exact from the beam's score); empty = see")
		node    = flag.String("node", "", "job-ID namespace (default: derived from -self in fleet mode)")

		rate        = flag.Float64("rate", 0, "per-client sustained requests/sec (0 = no rate limit)")
		burst       = flag.Int("burst", 16, "per-client burst size")
		quota       = flag.Int("quota", 0, "per-client requests per -quota-window (0 = no quota)")
		quotaWindow = flag.Duration("quota-window", time.Hour, "quota accounting window")
		reqTimeout  = flag.Duration("req-timeout", 0, "hard per-HTTP-request timeout (0 = off)")

		self  = flag.String("self", "", "this node's advertised host:port in the fleet peer list")
		peers = flag.String("peers", "", "comma-separated fleet peer list (host:port,...)")
	)
	flag.Parse()
	if err := applyEnvOverrides(flag.CommandLine, "HCAD_", os.LookupEnv); err != nil {
		log.Fatalf("hcad: environment: %v", err)
	}

	if *pprofAt != "" {
		// Dedicated mux: importing net/http/pprof self-registers on
		// http.DefaultServeMux, which we never serve — the handlers are
		// wired explicitly here and only here.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("hcad: pprof on %s", *pprofAt)
			if err := http.ListenAndServe(*pprofAt, mux); err != nil {
				log.Printf("hcad: pprof server: %v", err)
			}
		}()
	}

	var (
		results *store.ResultStore
		journal *store.JobStore
	)
	if *dataDir != "" {
		var err error
		results, err = store.Open(filepath.Join(*dataDir, "results"))
		if err != nil {
			log.Fatalf("hcad: result store: %v", err)
		}
		journal, err = store.OpenJobs(filepath.Join(*dataDir, "jobs.jsonl"), *maxJobs)
		if err != nil {
			log.Fatalf("hcad: job journal: %v", err)
		}
		log.Printf("hcad: durable store at %s (%d results, %d journaled jobs)",
			*dataDir, results.Len(), len(journal.Recovered()))
	}

	// In fleet mode job IDs must be namespaced by the tag peers derive
	// from our advertised address, or cross-node job routing breaks.
	nodeName := *node
	if nodeName == "" && *self != "" {
		nodeName = service.NodeTag(*self)
	}

	svc := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cacheSz,
		DefaultTimeout: *timeout,
		MaxJobs:        *maxJobs,
		JobTTL:         *jobTTL,
		MaxBodyBytes:   *maxBody,
		DefaultEngine:  *defEng,
		NodeName:       nodeName,
		Store:          results,
		Journal:        journal,
	})

	handler := http.Handler(svc.Handler())
	if *self != "" && *peers != "" {
		peerList := strings.Split(*peers, ",")
		for i := range peerList {
			peerList[i] = strings.TrimSpace(peerList[i])
		}
		sh := service.NewShardedHandler(svc, handler, service.ShardOptions{
			Self:  *self,
			Peers: peerList,
		})
		log.Printf("hcad: fleet mode, self=%s tag=%s ring=%v", *self, service.NodeTag(*self), sh.Ring().Nodes())
		handler = sh
	}

	var limiter *middleware.Limiter
	if *rate > 0 || *quota > 0 {
		limiter = middleware.NewLimiter(*rate, *burst, *quota, *quotaWindow)
	}
	handler = middleware.Chain(handler,
		middleware.Recover(func(v any) { log.Printf("hcad: panic: %v", v) }),
		middleware.Logging(log.Printf),
		middleware.RateLimit(limiter, func(string) { svc.NoteRateLimited() }),
		middleware.Timeout(*reqTimeout),
	)

	srv := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("hcad: listening on %s (%d workers, cache %d)", *addr, *workers, *cacheSz)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("hcad: %v", err)
	case <-ctx.Done():
	}

	log.Printf("hcad: draining (up to %v)...", *drainFor)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("hcad: shutdown: %v", err)
	}
	svc.Close()
	m := svc.Metrics()
	fmt.Printf("hcad: served %d requests (%d cache hits, %d misses, %d failures)\n",
		m.Requests, m.CacheHits, m.CacheMisses, m.Failures)
}
