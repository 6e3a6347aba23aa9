package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"mits/internal/cache"
	"mits/internal/mediastore"
	"mits/internal/obs"
)

// Method names of the courseware-database service. GetListDoc and
// GetSelectedDoc are the two APIs the thesis prototype implements
// (§5.3.2); GetKeywordTree and GetDocByKeyword are the ones it names as
// future work (§5.5); the rest complete the round trip for the
// production and author sites.
const (
	MethodListDocs      = "db.Get_List_Doc"
	MethodGetDoc        = "db.Get_Selected_Doc"
	MethodKeywordTree   = "db.GetKeywordTree"
	MethodDocByKeyword  = "db.GetDocByKeyword"
	MethodGetContent    = "db.GetContent"
	MethodContentDigest = "db.ContentDigest"
	MethodPutDoc        = "db.PutDocument"
	MethodPutContent    = "db.PutContent"
)

// Wire structs. Each keyed request leads with its key, which RequestKey reads.

// getDocReq names a document and the digest of the copy the caller holds
// (0 for none); while it is current the reply is the record without Data.
type getDocReq struct {
	Name string
	Have uint64
}
type putDocReq struct {
	Name, Title, Encoding string
	Keywords              []string
	Data                  []byte
}
type putDocResp struct{ Version int }
type getContentReq struct{ Ref string }

// contentDigestReq asks for the digest of what a store holds at Ref; the
// reply is a bare uint64, 0 for nothing.
type contentDigestReq struct{ Ref string }
type putContentReq struct {
	Ref, Coding string
	Keywords    []string
	Data        []byte
}
type keywordReq struct{ Keyword string }

// keywordTreeResp answers a request that is the tag of the tree the caller
// holds (a bare uint64; no payload: none): Root is nil if it is still Tag.
type keywordTreeResp struct {
	Tag  uint64
	Root *mediastore.KeywordNode
}

// RegisterStore exposes a mediastore on a mux as the courseware
// database service.
func RegisterStore(m *Mux, store *mediastore.Store) {
	Route(m, MethodListDocs, func(struct{}) ([]string, error) { return store.ListDocuments(), nil })
	RouteCtx(m, MethodGetDoc, func(sc obs.SpanContext, req getDocReq) (*mediastore.DocRecord, error) {
		// Internal span: separates time in the store itself from the
		// transport around it when the request is traced.
		sp := obs.SpanFromContext("store.GetDocument", "internal", sc)
		rec, err := store.RevalidateDocument(req.Name, req.Have)
		sp.End(err)
		return rec, err
	})
	served := map[bool]*obs.Counter{ // by whether the tree went with the answer
		true:  obs.GetCounter("mediastore_keyword_tree_served_total", "result", "full"),
		false: obs.GetCounter("mediastore_keyword_tree_served_total", "result", "unchanged"),
	}
	// Not a Route, which decodes every request: here no payload is one.
	m.RegisterPooled(MethodKeywordTree, func(_ obs.SpanContext, _ string, payload []byte) ([]byte, func(), error) {
		root, tag := store.Keywords()
		resp, err := answerKeywordTree(payload, root, tag)
		if err != nil {
			return nil, nil, err
		}
		served[resp.Root != nil].Inc()
		return appendPayloadPooled(resp)
	})
	Route(m, MethodDocByKeyword, func(req keywordReq) ([]string, error) {
		return store.DocsByKeyword(req.Keyword), nil
	})
	registerContent(m, store)
	Route(m, MethodContentDigest, func(req contentDigestReq) (uint64, error) {
		return store.ContentDigest(req.Ref)
	})
	// The store keeps a put's Data and Keywords: they are the decoder's
	// fresh copies, never views of the pooled request frame
	// (TestPutOverWireOutlivesItsFrame).
	Route(m, MethodPutDoc, func(req putDocReq) (putDocResp, error) {
		v, err := store.PutDocument(req.Name, req.Title, req.Encoding, req.Data, req.Keywords...)
		return putDocResp{Version: v}, err
	})
	Route(m, MethodPutContent, func(req putContentReq) (struct{}, error) {
		return struct{}{}, store.PutContent(req.Ref, req.Coding, req.Data, req.Keywords...)
	})
}

// EncodeGetDoc encodes a Get_Selected_Doc request payload, for issuing
// the call over asynchronous carriers (ATM sessions).
func EncodeGetDoc(name string) ([]byte, error) { return appendPayload(nil, getDocReq{Name: name}) }

// EncodeGetContent encodes a GetContent request payload.
func EncodeGetContent(ref string) ([]byte, error) { return appendPayload(nil, getContentReq{Ref: ref}) }

// Routing-key extractors and scatter-gather codecs. A cluster router
// sits between clients and shards speaking the same wire protocol both
// ways: it needs just enough of each request to route it (the object
// name or ref the consistent hash keys on) and the ability to merge
// the per-shard responses of the fan-out methods. Everything below is
// a thin, exported view of the wire structs for exactly that — the
// payloads themselves are forwarded verbatim via DBClient.Do.

// RequestKey extracts the routing key of a keyed request payload: the
// document name for Get_Selected_Doc/PutDocument, the content ref for
// GetContent/ContentDigest/PutContent. Methods that have no single key (list and
// keyword methods, which fan out) return ErrUnkeyedMethod. The key is
// the string each keyed request leads with, read without the rest: a
// put's Data is never materialised to route it.
func RequestKey(method string, payload []byte) (string, error) {
	switch method {
	case MethodGetDoc, MethodGetContent, MethodContentDigest, MethodPutDoc, MethodPutContent:
		n, k := binary.Uvarint(payload)
		if k <= 0 || n > uint64(len(payload)-k) {
			return "", errMalformed
		}
		return string(payload[k : k+int(n)]), nil
	case MethodGetContentStream:
		ref, _, _, err := DecodeGetContentStream(payload)
		return ref, err
	}
	return "", fmt.Errorf("%w: %s", ErrUnkeyedMethod, method)
}

// ErrUnkeyedMethod marks a method that carries no single routing key
// (scatter-gather methods route to every shard instead).
var ErrUnkeyedMethod = errors.New("transport: method has no routing key")

// EncodeNameList encodes a []string response payload (ListDocs,
// DocByKeyword) — the merge side of scatter-gather.
func EncodeNameList(names []string) ([]byte, error) { return appendPayload(nil, names) }

// DecodeNameList decodes a []string response payload.
func DecodeNameList(payload []byte) ([]string, error) {
	var names []string
	return names, decodePayload(payload, &names)
}

// ErrKeywordTag marks "unchanged" in answer to a tag the caller did not send.
var ErrKeywordTag = errors.New("transport: keyword tree unchanged from a tag not asked about")

// answerKeywordTree is the serving side, a store's and a router's alike:
// the tree held under tag, or "unchanged" if the request names that tag.
func answerKeywordTree(request []byte, root *mediastore.KeywordNode, tag uint64) (keywordTreeResp, error) {
	var have uint64
	if len(request) > 0 {
		if err := decodePayload(request, &have); err != nil {
			return keywordTreeResp{}, err
		}
	}
	if have == tag && tag != 0 {
		root = nil
	}
	return keywordTreeResp{Tag: tag, Root: root}, nil
}

// EncodeKeywordTree encodes a server's response to a GetKeywordTree request.
func EncodeKeywordTree(request []byte, root *mediastore.KeywordNode, tag uint64) ([]byte, error) {
	resp, err := answerKeywordTree(request, root, tag)
	if err != nil {
		return nil, err
	}
	return appendPayload(nil, resp)
}

// tree is the asking side: what r says in answer to a request naming have.
func (r keywordTreeResp) tree(have uint64) (*mediastore.KeywordNode, uint64, error) {
	if r.Root == nil && (have == 0 || r.Tag != have) {
		return nil, 0, fmt.Errorf("%w: peer at %#x, asked with %#x", ErrKeywordTag, r.Tag, have)
	}
	return r.Root, r.Tag, nil
}

// DecodeKeywordTree decodes the response to an unconditional GetKeywordTree.
func DecodeKeywordTree(payload []byte) (*mediastore.KeywordNode, uint64, error) {
	var resp keywordTreeResp
	if err := decodePayload(payload, &resp); err != nil {
		return nil, 0, err
	}
	return resp.tree(0)
}

// DBClient is the typed client module of §5.3.2, usable over any
// synchronous carrier (TCP or loopback).
type DBClient struct {
	C Client

	// ContentCache, when non-nil, serves repeated GetContent /
	// GetContentStream / FetchContent calls from local memory instead
	// of the wire: a size-bounded LRU with singleflight, so a stampede
	// of scene activations fetching the same MPEG object issues one
	// upstream RPC. Records that pass through the cache are shared
	// under the immutable-bytes handoff contract: every hit returns
	// the same record and callers must not mutate it (the rare caller
	// that must copies first). Nil means every call goes upstream (the
	// experiments keep it nil so store read counts stay exact).
	ContentCache *cache.Cache

	// Trace, when non-zero, is the span context every call continues —
	// the cluster router sets it per request (via WithTrace) so the
	// whole multi-hop path shares one trace.
	Trace obs.SpanContext
}

// WithTrace returns a copy of the client whose calls continue sc.
func (d DBClient) WithTrace(sc obs.SpanContext) DBClient {
	d.Trace = sc
	return d
}

// Do issues one raw, already-encoded RPC through the client's full
// stack (trace, breaker, retry — whatever the carrier composes). It is
// the forwarding hook for proxies that route by inspecting the payload
// rather than re-marshalling it: the cluster router decodes just the
// routing key and ships the original bytes to the chosen replica, then
// hands the response and its release to its own writer.
func (d DBClient) Do(method string, payload []byte) (resp []byte, release func(), err error) {
	return d.C.CallInTracePooled(d.Trace, method, payload)
}

// invoke is the typed call every stub below makes: Invoke under the
// trace this client continues.
func (d DBClient) invoke(method string, req, resp any) error {
	return Invoke(d.C, d.Trace, method, req, resp)
}

// GetListDoc returns the stored document names.
func (d DBClient) GetListDoc() (names []string, err error) {
	err = d.invoke(MethodListDocs, nil, &names)
	return names, err
}

// GetSelectedDoc retrieves one document by name. have is the digest of
// the copy the caller holds, 0 for none: while it is current the answer
// is the record without Data (or Keywords) under it.
func (d DBClient) GetSelectedDoc(name string, have uint64) (*mediastore.DocRecord, error) {
	var rec mediastore.DocRecord
	if err := d.invoke(MethodGetDoc, getDocReq{Name: name, Have: have}, &rec); err != nil {
		return nil, err
	}
	if rec.Data == nil && (have == 0 || rec.Digest != have) {
		return nil, fmt.Errorf("transport: document %q unchanged from %#x, asked with %#x", name, rec.Digest, have)
	}
	return &rec, nil
}

// GetKeywordTree retrieves the library's keyword hierarchy and its tag.
// have is the tag of the tree the caller holds, 0 for none: while it is
// current the answer is a nil tree under it. A tree under tag 0 is not kept.
func (d DBClient) GetKeywordTree(have uint64) (*mediastore.KeywordNode, uint64, error) {
	var resp keywordTreeResp
	if err := d.invoke(MethodKeywordTree, have, &resp); err != nil {
		return nil, 0, err
	}
	return resp.tree(have)
}

// GetDocByKeyword finds documents by keyword path.
func (d DBClient) GetDocByKeyword(keyword string) (names []string, err error) {
	err = d.invoke(MethodDocByKeyword, keywordReq{Keyword: keyword}, &names)
	return names, err
}

// GetContent fetches a content object's data by reference, consulting
// the content cache when one is attached. Records served through the
// cache are SHARED under the immutable-bytes handoff contract: every
// hit returns the same record and callers must treat it as read-only
// (a defensive clone per hit dominated the hit cost, E32).
func (d DBClient) GetContent(ref string) (*mediastore.ContentRecord, error) {
	if d.ContentCache == nil {
		return d.fetchContent(ref)
	}
	v, err := d.ContentCache.GetOrFill(ref, func() (any, int64, error) {
		rec, err := d.fetchContent(ref)
		if err != nil {
			return nil, 0, err
		}
		return rec, int64(len(rec.Data)), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*mediastore.ContentRecord), nil
}

// fetchContent is the uncached upstream path. The reply is the one chunk
// that is all of ref — chunk 0 of a stream, and its last — and Data is
// copied out of the (pooled) response, once, so the returned record owns
// its memory — which is exactly what the cache's immutable handoff needs.
func (d DBClient) fetchContent(ref string) (*mediastore.ContentRecord, error) {
	req, err := EncodeGetContent(ref)
	if err != nil {
		return nil, err
	}
	out, release, err := d.Do(MethodGetContent, req)
	if err != nil {
		return nil, err
	}
	if release != nil {
		defer release() // ck is a view of out
	}
	ck, err := DecodeContentChunk(out)
	if err == nil {
		err = checkChunk(ck, ref, 0, 0)
	}
	if err == nil && !ck.Last {
		err = fmt.Errorf("%w: %d of %d bytes", ErrBadChunk, len(ck.Data), ck.Total)
	}
	if err != nil {
		return nil, fmt.Errorf("content %q: %w", ref, err)
	}
	return &mediastore.ContentRecord{Ref: ck.Ref, Coding: ck.Coding, Keywords: ck.Keywords, Data: append([]byte(nil), ck.Data...)}, nil
}

// ContentDigest asks the store for the digest of what it holds at ref,
// 0 for nothing (mediastore.Store.ContentDigest): the production
// center's question before it produces ref again.
func (d DBClient) ContentDigest(ref string) (digest uint64, err error) {
	err = d.invoke(MethodContentDigest, contentDigestReq{Ref: ref}, &digest)
	return digest, err
}

// PutDocument publishes a courseware document (author site).
func (d DBClient) PutDocument(name, title, encoding string, data []byte, keywords ...string) (int, error) {
	var resp putDocResp
	err := d.invoke(MethodPutDoc, putDocReq{Name: name, Title: title, Encoding: encoding, Keywords: keywords, Data: data}, &resp)
	return resp.Version, err
}

// PutContent uploads media data (production center).
func (d DBClient) PutContent(ref, coding string, data []byte, keywords ...string) error {
	return d.invoke(MethodPutContent, putContentReq{Ref: ref, Coding: coding, Keywords: keywords, Data: data}, nil)
}

// FetchContent implements engine.ContentResolver over the database
// client, so a navigator's MHEG engine pulls referenced content through
// the network path.
func (d DBClient) FetchContent(ref string) ([]byte, error) {
	rec, err := d.GetContent(ref)
	if err != nil {
		return nil, fmt.Errorf("transport: fetch content %q: %w", ref, err)
	}
	return rec.Data, nil
}

// NewResilientDBClient builds the hardened client stack of DESIGN §9
// around a dialer: a circuit breaker (outermost, so an open breaker
// rejects before any retry or dial work) over an idempotent-retry
// client that redials on connection failure. The breaker is returned
// alongside so callers can observe or reset it; peer labels the
// breaker's metrics. Seed fixes the retry jitter stream for
// reproducible chaos runs.
func NewResilientDBClient(peer string, dial Dialer, policy RetryPolicy, threshold int, cooldown time.Duration, seed uint64) (DBClient, *Breaker) {
	br := NewBreaker(peer, threshold, cooldown)
	rc := NewRetryClient(dial, policy, seed)
	return DBClient{C: WithBreaker(rc, br)}, br
}
