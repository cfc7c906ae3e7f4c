package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Fleet mode. N hcad nodes share one logical result cache by
// consistent-hashing the request fingerprint keyspace over a static
// peer list: each compile has exactly one owner node, so the fleet
// computes each distinct configuration once instead of once per node a
// DSE driver happens to hit. There is no membership protocol — the
// peer list is fixed at boot (-peers) and a dead owner degrades to
// local computation, never to an error the client sees.
//
// Dead peers are handled with an active health probe rather than a
// dial-per-request: the first failed forward marks the owner down for a
// cooldown window during which every request it owns is served locally
// without touching the network. When the window expires, the next
// request sends one GET /healthz probe — success restores forwarding,
// failure re-arms the cooldown. A dead owner therefore costs one failed
// dial per cooldown period instead of one per request.

const (
	// ringPoints is the number of virtual points each node contributes
	// to the hash ring. 64 keeps the keyspace split within a few percent
	// of even for small static fleets without making ring construction
	// or lookup noticeable.
	ringPoints = 64

	// ForwardedByHeader marks a request already routed by a peer. A node
	// receiving it serves locally no matter what the ring says, so a
	// stale or disagreeing peer list degrades to extra local work, never
	// a forwarding loop.
	ForwardedByHeader = "X-Hca-Forwarded-By"

	// ShardHeader reports which node actually served the request,
	// "local" routing decisions included — the observability hook for
	// checking a fleet's routing from the client side.
	ShardHeader = "X-Hca-Shard"
)

// NodeTag derives a node's short stable identity from its advertised
// address: the first 8 hex digits of its SHA-256. Tags prefix job IDs
// ("1a2b3c4d-job-000017") so any node can route a job lookup back to
// the node that owns the job's state.
func NodeTag(addr string) string {
	sum := sha256.Sum256([]byte(addr))
	return hex.EncodeToString(sum[:4])
}

// Ring is a consistent-hash ring over a static node list. Lookups cost
// a binary search; construction sorts nodes×ringPoints points once.
type Ring struct {
	points []ringPoint
	nodes  []string
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring from the given node addresses. Duplicates are
// collapsed; order does not matter — every node builds the same ring
// from the same set.
func NewRing(nodes []string) *Ring {
	seen := make(map[string]bool, len(nodes))
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
		for i := 0; i < ringPoints; i++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", n, i)))
			r.points = append(r.points, ringPoint{
				hash: binary.BigEndian.Uint64(sum[:8]),
				node: n,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	sort.Strings(r.nodes)
	return r
}

// Owner returns the node owning key: the first ring point at or after
// the key's hash, wrapping around. Empty ring returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	sum := sha256.Sum256([]byte(key))
	h := binary.BigEndian.Uint64(sum[:8])
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Nodes returns the distinct node addresses on the ring, sorted.
func (r *Ring) Nodes() []string { return r.nodes }

// DefaultProbeCooldown is how long a failed forward keeps a peer marked
// down before the next request spends a health probe on it.
const DefaultProbeCooldown = 5 * time.Second

// ShardOptions configures a sharded handler.
type ShardOptions struct {
	// Self is this node's advertised address as it appears in every
	// node's peer list (e.g. "10.0.0.1:8080").
	Self string
	// Peers is the full fleet, self included or not (it is added).
	Peers []string
	// Client performs the forwarded requests; nil uses a client with a
	// 30s timeout.
	Client *http.Client
	// ProbeCooldown is how long a peer stays marked down after a failed
	// forward or probe before the next request probes it again
	// (default DefaultProbeCooldown).
	ProbeCooldown time.Duration
}

// ShardedHandler routes compile submissions to the fingerprint's owner
// node and job lookups to the node whose tag prefixes the job ID,
// forwarding over plain HTTP. Everything else — and everything this
// node owns — falls through to next (the local service handler,
// already carrying a node-tagged job namespace via Config.NodeName).
type ShardedHandler struct {
	self    string
	tag     string
	ring    *Ring
	tagAddr map[string]string // node tag → address
	client  *http.Client
	next    http.Handler
	svc     *Service

	// Dead-peer tracking: down maps a peer address to the instant its
	// cooldown expires and a health probe becomes worth spending. clock
	// is time.Now, injectable by same-package tests.
	cooldown time.Duration
	clock    func() time.Time
	healthMu sync.Mutex
	down     map[string]time.Time
}

// NewShardedHandler wraps next (svc's handler) with fleet routing. With
// no peers beyond self the wrapper still stamps ShardHeader but never
// forwards, so single-node and fleet deployments share one code path.
func NewShardedHandler(svc *Service, next http.Handler, opt ShardOptions) *ShardedHandler {
	all := append([]string{opt.Self}, opt.Peers...)
	ring := NewRing(all)
	tagAddr := make(map[string]string, len(ring.Nodes()))
	for _, n := range ring.Nodes() {
		tagAddr[NodeTag(n)] = n
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	cooldown := opt.ProbeCooldown
	if cooldown <= 0 {
		cooldown = DefaultProbeCooldown
	}
	return &ShardedHandler{
		self:     opt.Self,
		tag:      NodeTag(opt.Self),
		ring:     ring,
		tagAddr:  tagAddr,
		client:   client,
		next:     next,
		svc:      svc,
		cooldown: cooldown,
		clock:    time.Now,
		down:     make(map[string]time.Time),
	}
}

// markDown records a failed dial to owner, suppressing forwards to it
// until the cooldown expires.
func (sh *ShardedHandler) markDown(owner string) {
	sh.healthMu.Lock()
	sh.down[owner] = sh.clock().Add(sh.cooldown)
	sh.healthMu.Unlock()
}

// peerUp reports whether owner is worth forwarding to. Healthy peers
// (never marked down) answer true with no network traffic. A peer
// inside its cooldown window answers false, also without traffic. Once
// the window expires the next caller pays for one active GET /healthz
// probe: success clears the mark and restores forwarding, failure
// re-arms the cooldown so followers stay off the network.
func (sh *ShardedHandler) peerUp(ctx context.Context, owner string) bool {
	sh.healthMu.Lock()
	until, marked := sh.down[owner]
	if !marked {
		sh.healthMu.Unlock()
		return true
	}
	if sh.clock().Before(until) {
		sh.healthMu.Unlock()
		return false
	}
	// Cooldown expired: re-arm it before releasing the lock so only this
	// caller probes; concurrent requests keep falling back locally.
	sh.down[owner] = sh.clock().Add(sh.cooldown)
	sh.healthMu.Unlock()

	up := sh.probe(ctx, owner)
	sh.svc.metrics.update(func(c *Snapshot) {
		c.PeerProbes++
		if !up {
			c.PeerProbeFailures++
		}
	})
	if up {
		sh.healthMu.Lock()
		delete(sh.down, owner)
		sh.healthMu.Unlock()
	}
	return up
}

// probe performs one GET /healthz against owner.
func (sh *ShardedHandler) probe(ctx context.Context, owner string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+owner+"/healthz", nil)
	if err != nil {
		return false
	}
	req.Header.Set(ForwardedByHeader, sh.self)
	resp, err := sh.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// Ring exposes the routing table, mostly for tests and /metrics-style
// introspection.
func (sh *ShardedHandler) Ring() *Ring { return sh.ring }

func (sh *ShardedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// A peer already routed this request here; do not bounce it again.
	if r.Header.Get(ForwardedByHeader) != "" {
		w.Header().Set(ShardHeader, sh.tag)
		sh.next.ServeHTTP(w, r)
		return
	}
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/compile":
		sh.route(w, r, func(body []byte) (string, error) {
			var req CompileRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return "", err
			}
			return RequestKey(req)
		})
	case r.Method == http.MethodPost && r.URL.Path == "/v1/explore":
		sh.route(w, r, func(body []byte) (string, error) {
			var req ExploreRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return "", err
			}
			wk, err := req.work(sh.svc.cfg.MaxExplorePoints)
			if err != nil {
				return "", err
			}
			return wk.key, nil
		})
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		sh.routeJob(w, r)
	default:
		w.Header().Set(ShardHeader, sh.tag)
		sh.next.ServeHTTP(w, r)
	}
}

// route reads a submission, takes its content key and forwards it to
// the key's owner node, so a fleet computes each compile and each sweep
// once. It serves locally when this node owns the key, when the body
// cannot be keyed (the local handler then produces its usual 400), and
// when the owner is not a peer believed healthy — the result may then
// be computed twice fleet-wide, but it is never lost. The body must be
// read to key it, so the local fall-through re-wraps the bytes.
func (sh *ShardedHandler) route(w http.ResponseWriter, r *http.Request, key func(body []byte) (string, error)) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, sh.svc.cfg.MaxBodyBytes))
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	serveLocal := func() {
		w.Header().Set(ShardHeader, sh.tag)
		r2 := r.Clone(r.Context())
		r2.Body = io.NopCloser(bytes.NewReader(body))
		r2.ContentLength = int64(len(body))
		sh.next.ServeHTTP(w, r2)
	}
	k, err := key(body)
	if err != nil {
		serveLocal()
		return
	}
	owner := sh.ring.Owner(k)
	if owner == "" || owner == sh.self {
		serveLocal()
		return
	}
	if sh.peerUp(r.Context(), owner) && sh.forward(w, r, owner, body) {
		return
	}
	sh.svc.metrics.update(func(c *Snapshot) { c.ForwardFallbacks++ })
	serveLocal()
}

// routeJob forwards GET /v1/jobs/{tag}-job-N to the node whose tag
// prefixes the ID. Unknown tags and local tags fall through, producing
// the local handler's 404 when the job truly does not exist.
func (sh *ShardedHandler) routeJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	tag, _, ok := strings.Cut(id, "-")
	if !ok || tag == sh.tag {
		w.Header().Set(ShardHeader, sh.tag)
		sh.next.ServeHTTP(w, r)
		return
	}
	owner, known := sh.tagAddr[tag]
	if !known || owner == sh.self {
		w.Header().Set(ShardHeader, sh.tag)
		sh.next.ServeHTTP(w, r)
		return
	}
	if sh.peerUp(r.Context(), owner) && sh.forward(w, r, owner, nil) {
		return
	}
	sh.svc.metrics.update(func(c *Snapshot) { c.ForwardFallbacks++ })
	w.Header().Set(ShardHeader, sh.tag)
	sh.next.ServeHTTP(w, r)
}

// forward proxies the request to owner, marking it so the owner serves
// it locally. Returns false when the owner could not be reached (the
// caller falls back); true once any response — success or error — has
// been relayed to the client.
func (sh *ShardedHandler) forward(w http.ResponseWriter, r *http.Request, owner string, body []byte) bool {
	url := "http://" + owner + r.URL.RequestURI()
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, rdr)
	if err != nil {
		return false
	}
	for k, vs := range r.Header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	req.Header.Set(ForwardedByHeader, sh.self)
	resp, err := sh.client.Do(req)
	if err != nil {
		// The owner did not answer: start its cooldown so subsequent
		// requests fall back locally without paying for a dial each.
		sh.markDown(owner)
		return false
	}
	defer resp.Body.Close()
	sh.svc.metrics.update(func(c *Snapshot) { c.Forwarded++ })
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set(ShardHeader, NodeTag(owner))
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}
