// Package cluster turns the single-node MEDIASTORE into a sharded,
// replicated content service — the five-site metropolitan deployment
// of the paper scaled out the way "Educational Content Management – A
// Cellular Approach" argues for: courseware distributed across
// cooperating content cells, each cell redundant enough that losing a
// node degrades to rerouting, never to a failed read.
//
// The shape: N store shards behind a Router, placement by consistent
// hashing on the object ID (document name / content ref). Each shard
// is one primary plus R read replicas, every node an ordinary store
// daemon reached through the resilience stack of DESIGN §9 — a
// per-replica circuit breaker over an idempotent-retry client, now
// sharing a global RetryBudget so simultaneous failovers cannot
// amplify an outage into a retry storm.
//
//   - Writes go primary-then-replicate: the primary accepts the put
//     synchronously; appliers replay the same wire ops to each read
//     replica in accept order, retrying through partitions until the
//     node heals. Replication lag and backlog are obs gauges.
//   - Reads route to the owning shard's healthiest replica (breaker
//     state, then consecutive failures, then smoothed latency) and
//     fail over down the ladder on error, timeout or open breaker,
//     ending at the primary — which is also the authority for
//     not-found, so replication lag cannot manufacture a miss.
//   - Keyword search and listings scatter to every shard and gather
//     with partial-result degradation: what answered is served, what
//     did not is counted (cluster_search_shards_failed), and only a
//     total blackout errors.
//
// The router speaks the ordinary courseware-database wire protocol on
// both faces: it is a transport.Handler/CtxHandler/PooledCtxHandler
// (mount it on a mux or serve it over TCP via cmd/mitsd -cluster) and
// it forwards verbatim payloads to replicas via DBClient.Do — relaying
// each answer's pooled buffer to the front door's writer rather than
// copying it — so stores, clients and caches are unchanged. "Media
// Objects in Time" is the reason the read path never blocks on a dead
// node: continuous-media reads must keep flowing when a replica dies
// mid-stream, which E31 validates with chaos scenarios (replica kill,
// shard partition, heal-while-streaming).
package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"mits/internal/mediastore"
	"mits/internal/obs"
	"mits/internal/transport"
)

// ErrNoQuorum is returned when every shard of a scatter-gather query
// failed — the only case where degraded search gives up.
var ErrNoQuorum = errors.New("cluster: no shard answered")

// ErrAllReplicasFailed is returned when a keyed read exhausted the
// whole failover ladder.
var ErrAllReplicasFailed = errors.New("cluster: all replicas failed")

// ReplicaConfig names one store node and how to reach it.
type ReplicaConfig struct {
	Name string
	Dial transport.Dialer
}

// ShardConfig is one shard's nodes; Replicas[0] is the primary, the
// rest are read replicas.
type ShardConfig struct {
	Replicas []ReplicaConfig
}

// Config assembles a Router.
type Config struct {
	Shards []ShardConfig

	// Seed fixes every replica client's retry-jitter stream, so chaos
	// runs replay deterministically.
	Seed uint64
}

// shard is one configured shard at runtime. All fields are immutable
// after New; the only shared-mutable state is inside repl.
type shard struct {
	index    int
	primary  *Replica
	replicas []*Replica // read replicas (primary excluded)
	repl     *replGroup // the shard's replication appliers
}

// replGroup owns a shard's appliers and the ordering lock across
// them: holding mu across every applier's enqueue gives all replicas
// of the shard the identical op sequence, even under concurrent
// writers.
type replGroup struct {
	mu       sync.Mutex
	appliers []*applier
}

// enqueueAll logs one accepted write to every applier, atomically
// with respect to other writers.
func (g *replGroup) enqueueAll(op replOp) {
	g.mu.Lock()
	for _, a := range g.appliers {
		a.enqueue(op)
	}
	g.mu.Unlock()
}

// backlog sums the pending ops across the group.
func (g *replGroup) backlog() int {
	total := 0
	for _, a := range g.appliers {
		total += a.depth()
	}
	return total
}

// closeAll stops every applier.
func (g *replGroup) closeAll() {
	for _, a := range g.appliers {
		a.close()
	}
}

// Router is the cluster front door. It implements transport.Handler,
// transport.CtxHandler and transport.PooledCtxHandler over the
// courseware-database method set.
type Router struct {
	shards []*shard
	ring   *ring
	budget *transport.RetryBudget

	closeOnce sync.Once
	closeErr  error
	applierWG sync.WaitGroup

	// Cached instruments (hot path: every routed call).
	readFailovers *obs.Counter
	readFailed    *obs.Counter
	searchPartial *obs.Counter
	shardsFailed  *obs.Gauge
}

// New assembles a router over the configured shards, dialing nothing
// yet (replica clients dial lazily on first use).
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: no shards configured")
	}
	n := 0
	for i, sc := range cfg.Shards {
		if len(sc.Replicas) == 0 {
			return nil, fmt.Errorf("cluster: shard %d has no replicas", i)
		}
		n += len(sc.Replicas)
	}
	// Storm control: a burst of two retries per replica, refilling at
	// one per replica per second, shared by every replica client.
	policy := transport.RetryPolicy{Budget: transport.NewRetryBudget(float64(2*n), float64(n))}
	r := &Router{
		ring:          newRing(len(cfg.Shards)),
		budget:        policy.Budget,
		readFailovers: obs.GetCounter("cluster_read_failovers_total"),
		readFailed:    obs.GetCounter("cluster_read_failures_total"),
		searchPartial: obs.GetCounter("cluster_search_partial_total"),
		shardsFailed:  obs.GetGauge("cluster_search_shards_failed"),
	}
	for i, sc := range cfg.Shards {
		sh := &shard{index: i}
		var appliers []*applier
		for j, rc := range sc.Replicas {
			name := rc.Name
			if name == "" {
				if j == 0 {
					name = fmt.Sprintf("shard%d/primary", i)
				} else {
					name = fmt.Sprintf("shard%d/replica%d", i, j)
				}
			}
			db, br := transport.NewResilientDBClient(name, rc.Dial, policy, cfg.Seed+uint64(i*101+j))
			rep := &Replica{Name: name, DB: db, Breaker: br}
			if j == 0 {
				sh.primary = rep
			} else {
				sh.replicas = append(sh.replicas, rep)
				appliers = append(appliers, newApplier(rep))
			}
		}
		sh.repl = &replGroup{appliers: appliers}
		r.shards = append(r.shards, sh)
		for _, a := range appliers {
			r.applierWG.Add(1)
			go func(a *applier) {
				defer r.applierWG.Done()
				a.run()
			}(a)
		}
	}
	obs.GetGauge("cluster_shards").Set(int64(len(r.shards)))
	return r, nil
}

// Shards reports the shard count.
func (r *Router) Shards() int { return len(r.shards) }

// ShardFor reports which shard owns an object ID.
func (r *Router) ShardFor(key string) int { return r.ring.shardFor(key) }

// Backlog reports the total pending replication ops across the
// cluster; zero means every replica has converged.
func (r *Router) Backlog() int {
	total := 0
	for _, sh := range r.shards {
		total += sh.repl.backlog()
	}
	return total
}

// WaitConverged blocks until the replication backlog drains or the
// timeout elapses, reporting which. Tests and experiments use it to
// sequence "write, heal, then assert replicas caught up".
func (r *Router) WaitConverged(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if r.Backlog() == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond) //mits:allow sleepless convergence polling in a bounded test/experiment helper
	}
}

// Close stops the replication appliers and closes every replica
// client. Idempotent.
func (r *Router) Close() error {
	r.closeOnce.Do(func() {
		var errs []error
		for _, sh := range r.shards {
			sh.repl.closeAll()
		}
		r.applierWG.Wait()
		for _, sh := range r.shards {
			if err := sh.primary.DB.C.Close(); err != nil {
				errs = append(errs, err)
			}
			for _, rep := range sh.replicas {
				if err := rep.DB.C.Close(); err != nil {
					errs = append(errs, err)
				}
			}
		}
		r.closeErr = errors.Join(errs...)
	})
	return r.closeErr
}

// --- keyed reads: health-ordered failover ladder ---

// isNotFound recognizes a store's not-found answer after it crossed
// the wire as a RemoteError.
func isNotFound(err error) bool {
	var remote *transport.RemoteError
	return errors.As(err, &remote) && strings.Contains(remote.Text, mediastore.ErrNotFound.Error())
}

// read routes one keyed read down the shard's failover ladder:
// healthiest read replica first, primary last. Transport-level
// failures and not-found answers (which may be replication lag) fall
// through to the next rung; any other remote error is authoritative
// and returns immediately. The primary's answer — including its
// not-found — is final. A content digest asks the primary alone: a
// replica whose applier is behind would vouch for bytes the primary
// has since replaced, and a publisher trusting it would skip a put the
// shard needs. The answer is the replica client's buffer, not a copy:
// whoever takes it owes release (when non-nil) exactly once, after the
// last byte is read.
func (r *Router) read(sc obs.SpanContext, sh *shard, method string, payload []byte) ([]byte, func(), error) {
	ladder := append(orderByHealth(sh.replicas), sh.primary)
	if method == transport.MethodContentDigest {
		ladder = ladder[len(ladder)-1:]
	}
	var lastErr error
	for i, rep := range ladder {
		if i > 0 {
			r.readFailovers.Inc()
		}
		start := time.Now()
		out, release, err := rep.DB.WithTrace(sc).Do(method, payload)
		if err == nil {
			rep.recordOutcome(time.Since(start), false)
			return out, release, nil
		}
		var remote *transport.RemoteError
		if errors.As(err, &remote) {
			rep.recordOutcome(time.Since(start), false) // the node answered
			if !isNotFound(err) {
				return nil, nil, err // deterministic server-side failure
			}
			lastErr = err // maybe lag: ask the next rung, ultimately the primary
			continue
		}
		rep.recordOutcome(time.Since(start), true)
		lastErr = err
	}
	r.readFailed.Inc()
	if lastErr == nil {
		lastErr = ErrAllReplicasFailed
	} else if !isNotFound(lastErr) {
		lastErr = fmt.Errorf("%w: %w", ErrAllReplicasFailed, lastErr)
	}
	return nil, nil, lastErr
}

// --- writes: primary accepts, appliers converge the replicas ---

// write forwards one put to the shard primary and, on success,
// enqueues the identical wire op for every read replica. The caller
// sees exactly the primary's answer; replication is asynchronous and
// its lag observable (cluster_replication_backlog / _lag_ns gauges).
func (r *Router) write(sc obs.SpanContext, sh *shard, method string, payload []byte) ([]byte, func(), error) {
	out, release, err := sh.primary.DB.WithTrace(sc).Do(method, payload)
	if err != nil {
		return nil, nil, err
	}
	sh.repl.enqueueAll(replOp{method: method, payload: payload, accepted: time.Now()})
	return out, release, nil
}

// --- scatter-gather: listings, keyword search, keyword tree ---

// shardAnswer is one shard's leg of a fan-out query. The payload is the
// leg's pooled response; release gives it back once the merge has
// decoded it.
type shardAnswer struct {
	payload []byte
	release func()
	err     error
}

// scatter runs the same request against every shard's failover ladder
// concurrently and collects the per-shard answers in shard order.
func (r *Router) scatter(sc obs.SpanContext, method string, payload []byte) []shardAnswer {
	answers := make([]shardAnswer, len(r.shards))
	var wg sync.WaitGroup
	for i, sh := range r.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			out, release, err := r.read(sc, sh, method, payload)
			answers[i] = shardAnswer{payload: out, release: release, err: err}
		}(i, sh)
	}
	wg.Wait()
	return answers
}

// releaseAll gives every leg's pooled response back; a merge defers it,
// since what it decodes out of the legs is copied.
func releaseAll(answers []shardAnswer) {
	for _, a := range answers {
		if a.release != nil {
			a.release()
		}
	}
}

// gatherTally applies the partial-result policy to a scatter's
// answers: not-found legs are empty-but-healthy, transport failures
// are degradation (counted, surfaced in the gauge), and only a total
// blackout is an error.
func (r *Router) gatherTally(answers []shardAnswer) (served []shardAnswer, failed int, err error) {
	for _, a := range answers {
		switch {
		case a.err == nil:
			served = append(served, a)
		case isNotFound(a.err):
			// A shard with no matching objects is an answer, not an
			// outage; it contributes nothing to the merge.
		default:
			failed++
		}
	}
	r.shardsFailed.Set(int64(failed))
	if failed > 0 {
		r.searchPartial.Inc()
	}
	if len(served) == 0 && failed > 0 {
		return nil, failed, fmt.Errorf("%w: %d shards down", ErrNoQuorum, failed)
	}
	return served, failed, nil
}

// scatterNames merges the []string responses of a fan-out method
// (ListDocs, DocByKeyword): union, deduplicated, sorted.
func (r *Router) scatterNames(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	answers := r.scatter(sc, method, payload)
	defer releaseAll(answers)
	served, _, err := r.gatherTally(answers)
	if err != nil {
		return nil, err
	}
	set := make(map[string]bool)
	for _, a := range served {
		names, derr := transport.DecodeNameList(a.payload)
		if derr != nil {
			return nil, fmt.Errorf("cluster: merge %s: %w", method, derr)
		}
		for _, n := range names {
			set[n] = true
		}
	}
	return transport.EncodeNameList(sortedKeys(set))
}

// scatterTree merges the per-shard keyword-tree snapshots into one
// tree (same node set a single store would have built). A client's tag
// names that tree, which no shard holds: the shards are asked for theirs
// whole, and "unchanged" is the router's answer, by the merged tree's digest.
func (r *Router) scatterTree(sc obs.SpanContext, payload []byte) ([]byte, error) {
	answers := r.scatter(sc, transport.MethodKeywordTree, nil)
	defer releaseAll(answers)
	served, _, err := r.gatherTally(answers)
	if err != nil {
		return nil, err
	}
	merged := &mediastore.KeywordNode{}
	for _, a := range served {
		tree, _, derr := transport.DecodeKeywordTree(a.payload)
		if derr != nil {
			return nil, fmt.Errorf("cluster: merge keyword tree: %w", derr)
		}
		mergeKeywordNode(merged, tree)
	}
	return transport.EncodeKeywordTree(payload, merged, merged.Digest())
}
