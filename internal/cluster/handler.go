package cluster

import (
	"bytes"
	"fmt"
	"sort"

	"mits/internal/mediastore"
	"mits/internal/obs"
	"mits/internal/transport"
)

// Handle implements transport.Handler (untraced requests). It stays
// because bench/ names it.
func (r *Router) Handle(method string, payload []byte) ([]byte, error) {
	return r.HandleCtx(obs.SpanContext{}, method, payload)
}

// HandleCtx implements transport.CtxHandler, for a caller that cannot
// release: it gets a copy of a relayed response, the pool its buffer.
// It stays because bench/ names it.
func (r *Router) HandleCtx(sc obs.SpanContext, method string, payload []byte) ([]byte, error) {
	out, release, err := r.HandleCtxPooled(sc, method, payload)
	if release != nil {
		out = bytes.Clone(out)
		release()
	}
	return out, err
}

// HandleCtxPooled implements transport.PooledCtxHandler: the router's
// whole wire surface. Keyed methods hash to their owning shard — reads
// walk the failover ladder (the content digest's is the primary alone),
// writes go primary-then-replicate — and the node's answer is relayed
// as it arrived, its pooled buffer released by the serving connection
// once the bytes are on the wire; unkeyed methods scatter to every
// shard and gather with partial-result degradation.
func (r *Router) HandleCtxPooled(sc obs.SpanContext, method string, payload []byte) ([]byte, func(), error) {
	// The server recycles the request buffer when this handler returns,
	// but the replication queues (and a timed-out forward's still-queued
	// frame) outlive it — take a private copy once, up front.
	payload = append([]byte(nil), payload...)
	switch method {
	case transport.MethodGetDoc, transport.MethodGetContent, transport.MethodGetContentStream, transport.MethodContentDigest:
		// GetContentStream chunks ride the ordinary keyed-read path:
		// every chunk of one object hashes to the same shard (keyed by
		// ref), the request and response payloads are forwarded
		// verbatim (the router never reassembles), and each chunk
		// independently walks the failover ladder. ContentDigest's
		// ladder is the primary alone (read).
		key, err := transport.RequestKey(method, payload)
		if err != nil {
			return nil, nil, err
		}
		return r.read(sc, r.shards[r.ring.shardFor(key)], method, payload)
	case transport.MethodPutDoc, transport.MethodPutContent:
		key, err := transport.RequestKey(method, payload)
		if err != nil {
			return nil, nil, err
		}
		return r.write(sc, r.shards[r.ring.shardFor(key)], method, payload)
	case transport.MethodListDocs, transport.MethodDocByKeyword:
		out, err := r.scatterNames(sc, method, payload)
		return out, nil, err
	case transport.MethodKeywordTree:
		out, err := r.scatterTree(sc, payload)
		return out, nil, err
	}
	// Anything else (obs.Export, future methods) is not a cluster
	// concern; answer like a mux with no such handler.
	return nil, nil, fmt.Errorf("%w: %q", transport.ErrUnknownMethod, method)
}

// Register mounts the router's method set on a mux, so a TCP server
// (or loopback) serves the cluster exactly like a single store —
// relayed buffers and their releases included.
func (r *Router) Register(m *transport.Mux) {
	methods := []string{
		transport.MethodListDocs,
		transport.MethodGetDoc,
		transport.MethodKeywordTree,
		transport.MethodDocByKeyword,
		transport.MethodGetContent,
		transport.MethodGetContentStream,
		transport.MethodContentDigest,
		transport.MethodPutDoc,
		transport.MethodPutContent,
	}
	for _, method := range methods {
		m.RegisterPooled(method, r.HandleCtxPooled)
	}
}

// sortedKeys flattens a name set into the sorted slice the wire
// protocol carries — the same order a single store would list.
func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// mergeKeywordNode folds src into dst: union of docs, recursive merge
// of same-named children, everything re-sorted so the merged tree is
// byte-identical to what one store holding all the documents would
// snapshot.
func mergeKeywordNode(dst, src *mediastore.KeywordNode) {
	docs := make(map[string]bool, len(dst.Docs)+len(src.Docs))
	for _, d := range dst.Docs {
		docs[d] = true
	}
	for _, d := range src.Docs {
		docs[d] = true
	}
	dst.Docs = sortedKeys(docs)
	if len(dst.Docs) == 0 {
		dst.Docs = nil
	}
	byName := make(map[string]*mediastore.KeywordNode, len(dst.Children))
	for _, c := range dst.Children {
		byName[c.Name] = c
	}
	for _, sc := range src.Children {
		if dc, ok := byName[sc.Name]; ok {
			mergeKeywordNode(dc, sc)
			continue
		}
		cp := &mediastore.KeywordNode{Name: sc.Name}
		mergeKeywordNode(cp, sc)
		dst.Children = append(dst.Children, cp)
		byName[sc.Name] = cp
	}
	sort.Slice(dst.Children, func(i, j int) bool {
		return dst.Children[i].Name < dst.Children[j].Name
	})
}
