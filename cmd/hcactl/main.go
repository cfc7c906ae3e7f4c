// Command hcactl is the client-side companion to hcad: it speaks the
// daemon's JSON API so scripts and operators do not hand-roll curl
// invocations against a fleet.
//
//	hcactl -addr localhost:8080 compile '{"kernel":"fir2dim"}'
//	hcactl compile -async -f request.json
//	hcactl batch -summary '{"entries":[{"kernel":"fir2dim"},{"kernel":"idcthor"}]}'
//	hcactl job get 1a2b3c4d-job-000017
//	hcactl job wait -timeout 2m 1a2b3c4d-job-000017
//	hcactl metrics
//	hcactl health
//
// -addr defaults to the HCACTL_ADDR environment variable, then
// localhost:8080. -key sets the X-Api-Key header the daemon's rate
// limiter budgets by. Request bodies come from a positional JSON
// argument, -f file, or stdin when neither is given.
//
// Exit status: 0 on success, 1 on a daemon-reported error (non-2xx or a
// failed compile), 2 on usage errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/report"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: hcactl [-addr host:port] [-key apikey] <command> [args]

commands:
  compile [-async] [-trace] [-f file] [json]   submit one compile
  batch   [-async] [-summary] [-f file] [json] submit a batch of compiles
  explore [-async] [-f file] [json]            sweep a kernel over a fabric grid
                                               (POST /v1/explore)
  job get <id>                                 fetch a job's status/result
  job wait [-interval d] [-timeout d] <id>     poll a job until terminal
  metrics                                      dump the daemon's counters
  health                                       liveness probe
`

// ctl carries the resolved connection options into each subcommand.
type ctl struct {
	base   string
	key    string
	client *http.Client
	stdout io.Writer
	stderr io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hcactl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	defAddr := os.Getenv("HCACTL_ADDR")
	if defAddr == "" {
		defAddr = "localhost:8080"
	}
	addr := fs.String("addr", defAddr, "daemon address (default $HCACTL_ADDR, then localhost:8080)")
	key := fs.String("key", "", "X-Api-Key header value")
	fs.Usage = func() { fmt.Fprint(stderr, usage) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	if len(rest) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}

	c := &ctl{
		base:   "http://" + *addr,
		key:    *key,
		client: &http.Client{Timeout: 5 * time.Minute},
		stdout: stdout,
		stderr: stderr,
	}
	switch rest[0] {
	case "compile":
		return c.compile(rest[1:])
	case "batch":
		return c.batch(rest[1:])
	case "explore":
		return c.explore(rest[1:])
	case "job":
		return c.job(rest[1:])
	case "metrics":
		return c.get("/metrics")
	case "health":
		return c.get("/healthz")
	default:
		fmt.Fprintf(stderr, "hcactl: unknown command %q\n%s", rest[0], usage)
		return 2
	}
}

// body resolves a request body: positional JSON argument, -f file, or
// stdin.
func body(fs *flag.FlagSet, file string) ([]byte, error) {
	if fs.NArg() > 1 {
		return nil, errors.New("at most one positional JSON argument")
	}
	if fs.NArg() == 1 {
		if file != "" {
			return nil, errors.New("both -f and a positional JSON argument given")
		}
		return []byte(fs.Arg(0)), nil
	}
	if file != "" {
		return os.ReadFile(file)
	}
	return io.ReadAll(os.Stdin)
}

func (c *ctl) do(method, path string, reqBody []byte) (*http.Response, []byte, error) {
	var rdr io.Reader
	if reqBody != nil {
		rdr = strings.NewReader(string(reqBody))
	}
	req, err := http.NewRequest(method, c.base+path, rdr)
	if err != nil {
		return nil, nil, err
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.key != "" {
		req.Header.Set("X-Api-Key", c.key)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, b, err
}

// fail prints a daemon error envelope (or the raw body) to stderr.
func (c *ctl) fail(what string, resp *http.Response, b []byte) int {
	var eb service.ErrorBody
	if json.Unmarshal(b, &eb) == nil && eb.Error != "" {
		if eb.Field != "" {
			fmt.Fprintf(c.stderr, "hcactl: %s: %s (status %d, field %q)\n", what, eb.Error, resp.StatusCode, eb.Field)
		} else {
			fmt.Fprintf(c.stderr, "hcactl: %s: %s (status %d)\n", what, eb.Error, resp.StatusCode)
		}
	} else {
		fmt.Fprintf(c.stderr, "hcactl: %s: status %d: %s\n", what, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return 1
}

func (c *ctl) get(path string) int {
	resp, b, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		fmt.Fprintf(c.stderr, "hcactl: %v\n", err)
		return 1
	}
	if resp.StatusCode != http.StatusOK {
		return c.fail(path, resp, b)
	}
	c.stdout.Write(b)
	return 0
}

func (c *ctl) compile(args []string) int {
	fs := flag.NewFlagSet("compile", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	async := fs.Bool("async", false, "return a job ID immediately instead of waiting")
	traceIt := fs.Bool("trace", false, "record the compile and embed the telemetry summary")
	engine := fs.String("engine", "", "subproblem engine: see, exact, or portfolio (beam, then exact from the beam's score); overrides the body's options.engine")
	file := fs.String("f", "", "read the request body from this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b, err := body(fs, *file)
	if err != nil {
		fmt.Fprintf(c.stderr, "hcactl: %v\n", err)
		return 2
	}
	// Fold the flags into the request body so the one JSON document is
	// the full truth of what was submitted.
	var req map[string]any
	if err := json.Unmarshal(b, &req); err != nil {
		fmt.Fprintf(c.stderr, "hcactl: request is not JSON: %v\n", err)
		return 2
	}
	if *async {
		req["async"] = true
	}
	if *traceIt {
		req["trace"] = true
	}
	if *engine != "" {
		opts, _ := req["options"].(map[string]any)
		if opts == nil {
			opts = map[string]any{}
		}
		opts["engine"] = *engine
		req["options"] = opts
	}
	b, _ = json.Marshal(req)

	resp, rb, err := c.do(http.MethodPost, "/v1/compile", b)
	if err != nil {
		fmt.Fprintf(c.stderr, "hcactl: %v\n", err)
		return 1
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		c.stdout.Write(rb)
		if len(rb) > 0 && rb[len(rb)-1] != '\n' {
			fmt.Fprintln(c.stdout)
		}
		return 0
	default:
		return c.fail("compile", resp, rb)
	}
}

func (c *ctl) batch(args []string) int {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	async := fs.Bool("async", false, "return per-entry job IDs immediately")
	summary := fs.Bool("summary", false, "print one line per entry instead of the raw JSON")
	file := fs.String("f", "", "read the batch body from this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b, err := body(fs, *file)
	if err != nil {
		fmt.Fprintf(c.stderr, "hcactl: %v\n", err)
		return 2
	}
	var req map[string]any
	if err := json.Unmarshal(b, &req); err != nil {
		fmt.Fprintf(c.stderr, "hcactl: batch is not JSON: %v\n", err)
		return 2
	}
	if *async {
		req["async"] = true
	}
	b, _ = json.Marshal(req)

	resp, rb, err := c.do(http.MethodPost, "/v1/compile/batch", b)
	if err != nil {
		fmt.Fprintf(c.stderr, "hcactl: %v\n", err)
		return 1
	}
	if resp.StatusCode != http.StatusOK {
		return c.fail("batch", resp, rb)
	}
	if !*summary {
		c.stdout.Write(rb)
		return 0
	}

	var br service.BatchResponse
	if err := json.Unmarshal(rb, &br); err != nil {
		fmt.Fprintf(c.stderr, "hcactl: bad batch response: %v\n", err)
		return 1
	}
	exit := 0
	for _, e := range br.Entries {
		switch {
		case e.Error != "":
			fmt.Fprintf(c.stdout, "[%d] ERROR %s\n", e.Index, e.Error)
			exit = 1
		case len(e.Result) > 0:
			var rep report.Report
			if err := json.Unmarshal(e.Result, &rep); err != nil {
				fmt.Fprintf(c.stdout, "[%d] %s (unparseable result: %v)\n", e.Index, e.State, err)
				exit = 1
				continue
			}
			mark := ""
			if e.Deduped {
				mark = " (dedup)"
			} else if e.CacheHit {
				mark = " (cache)"
			}
			fmt.Fprintf(c.stdout, "[%d] %s%s\n", e.Index, rep.OneLine(), mark)
		default:
			fmt.Fprintf(c.stdout, "[%d] %s %s\n", e.Index, e.JobID, e.State)
		}
	}
	fmt.Fprintf(c.stdout, "%d entries, %d unique, %d deduped\n", len(br.Entries), br.Unique, br.Deduped)
	return exit
}

// explore submits a design-space sweep (POST /v1/explore): one kernel
// against a fabric parameter grid, returning every point and the
// MII-vs-cost Pareto front.
//
//	hcactl explore '{"kernel":"fir2dim","grid":{"k":[8,6,4,2]}}'
//	hcactl explore -async -f sweep.json
func (c *ctl) explore(args []string) int {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	async := fs.Bool("async", false, "return a job ID immediately instead of waiting")
	file := fs.String("f", "", "read the request body from this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b, err := body(fs, *file)
	if err != nil {
		fmt.Fprintf(c.stderr, "hcactl: %v\n", err)
		return 2
	}
	var req map[string]any
	if err := json.Unmarshal(b, &req); err != nil {
		fmt.Fprintf(c.stderr, "hcactl: request is not JSON: %v\n", err)
		return 2
	}
	if *async {
		req["async"] = true
	}
	b, _ = json.Marshal(req)

	resp, rb, err := c.do(http.MethodPost, "/v1/explore", b)
	if err != nil {
		fmt.Fprintf(c.stderr, "hcactl: %v\n", err)
		return 1
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		c.stdout.Write(rb)
		if len(rb) > 0 && rb[len(rb)-1] != '\n' {
			fmt.Fprintln(c.stdout)
		}
		return 0
	default:
		return c.fail("explore", resp, rb)
	}
}

func (c *ctl) job(args []string) int {
	if len(args) == 0 {
		fmt.Fprint(c.stderr, usage)
		return 2
	}
	switch args[0] {
	case "get":
		if len(args) != 2 {
			fmt.Fprintln(c.stderr, "usage: hcactl job get <id>")
			return 2
		}
		return c.get("/v1/jobs/" + args[1])
	case "wait":
		return c.jobWait(args[1:])
	default:
		fmt.Fprintf(c.stderr, "hcactl: unknown job subcommand %q\n%s", args[0], usage)
		return 2
	}
}

func (c *ctl) jobWait(args []string) int {
	fs := flag.NewFlagSet("job wait", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	interval := fs.Duration("interval", 250*time.Millisecond, "poll interval")
	timeout := fs.Duration("timeout", 5*time.Minute, "give up after this long")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(c.stderr, "usage: hcactl job wait [-interval d] [-timeout d] <id>")
		return 2
	}
	id := fs.Arg(0)

	deadline := time.Now().Add(*timeout)
	for {
		resp, b, err := c.do(http.MethodGet, "/v1/jobs/"+id, nil)
		if err != nil {
			fmt.Fprintf(c.stderr, "hcactl: %v\n", err)
			return 1
		}
		if resp.StatusCode != http.StatusOK {
			return c.fail("job "+id, resp, b)
		}
		var st struct {
			State service.State `json:"state"`
			Error string        `json:"error"`
		}
		if err := json.Unmarshal(b, &st); err != nil {
			fmt.Fprintf(c.stderr, "hcactl: bad job body: %v\n", err)
			return 1
		}
		if st.State.Terminal() {
			c.stdout.Write(b)
			if st.State != service.StateDone {
				return 1
			}
			return 0
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(c.stderr, "hcactl: job %s still %s after %v\n", id, st.State, *timeout)
			return 1
		}
		time.Sleep(*interval)
	}
}
