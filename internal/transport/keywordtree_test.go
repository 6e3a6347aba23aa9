package transport

import (
	"errors"
	"reflect"
	"testing"

	"mits/internal/mediastore"
	"mits/internal/obs"
)

// TestKeywordTreeRoute: the serving side of the revalidation. No payload
// is the unconditional request (what the router's scatter and any
// Invoke(…, nil, …) caller send), a request naming the current tag is
// answered without the tree, one naming any other tag with it, and each
// answer is counted under its result.
func TestKeywordTreeRoute(t *testing.T) {
	store := mediastore.New()
	if _, err := store.PutDocument("doc", "T", "asn1", []byte("x"), "network/atm"); err != nil {
		t.Fatal(err)
	}
	mux := NewMux()
	RegisterStore(mux, store)
	c := Loopback{H: mux}
	db := DBClient{C: c}
	want, wantTag := store.Keywords()
	served := func(result string) int64 {
		return obs.GetCounter("mediastore_keyword_tree_served_total", "result", result).Value()
	}
	full, unchanged := served("full"), served("unchanged")

	var raw keywordTreeResp
	if err := Invoke(c, obs.SpanContext{}, MethodKeywordTree, nil, &raw); err != nil || raw.Tag != wantTag || !reflect.DeepEqual(raw.Root, want) {
		t.Fatalf("no payload: %+v, %v; want the tree under %#x", raw, err, wantTag)
	}
	for _, have := range []uint64{0, wantTag + 1} {
		if root, tag, err := db.GetKeywordTree(have); err != nil || tag != wantTag || !reflect.DeepEqual(root, want) {
			t.Errorf("have %#x: %+v under %#x, %v; want the tree under %#x", have, root, tag, err, wantTag)
		}
	}
	if root, tag, err := db.GetKeywordTree(wantTag); err != nil || root != nil || tag != wantTag {
		t.Errorf("have the current tag: %+v under %#x, %v; want unchanged", root, tag, err)
	}
	if f, u := served("full")-full, served("unchanged")-unchanged; f != 3 || u != 1 {
		t.Errorf("served %d full and %d unchanged, want 3 and 1", f, u)
	}

	if _, err := store.PutDocument("doc2", "T", "asn1", []byte("x"), "network/ip"); err != nil {
		t.Fatal(err)
	}
	if root, tag, err := db.GetKeywordTree(wantTag); err != nil || root == nil || tag == wantTag || tag != root.Digest() {
		t.Errorf("after a publish, have the old tag: %+v under %#x, %v", root, tag, err)
	}
	if _, err := c.Call(MethodKeywordTree, []byte{0x01, 0x02}); err == nil {
		t.Error("a request that is not a payload was served")
	}
	if f, u := served("full")-full, served("unchanged")-unchanged; f != 4 || u != 1 {
		t.Errorf("served %d full and %d unchanged, want 4 and 1", f, u)
	}

	// An empty store has a tree too — the root alone — and a tag for it.
	emptyMux := NewMux()
	RegisterStore(emptyMux, mediastore.New())
	empty := DBClient{C: Loopback{H: emptyMux}}
	root, tag, err := empty.GetKeywordTree(0)
	if err != nil || root == nil || len(root.Children) != 0 || tag == 0 {
		t.Fatalf("empty store: %+v under %#x, %v", root, tag, err)
	}
	if root, _, err := empty.GetKeywordTree(tag); err != nil || root != nil {
		t.Errorf("empty store, have its tag: %+v, %v", root, err)
	}
}

// TestKeywordTreeReplyShapes: what the asking side makes of each reply a
// peer can send. "Unchanged" counts only as the answer to the tag that
// was sent; anything else without a tree is ErrKeywordTag.
func TestKeywordTreeReplyShapes(t *testing.T) {
	tree := &mediastore.KeywordNode{Children: []*mediastore.KeywordNode{{Name: "network", Docs: []string{"doc"}}}}
	for _, tc := range []struct {
		what  string
		reply keywordTreeResp
		have  uint64
		bad   bool
	}{
		{"full", keywordTreeResp{Tag: 9, Root: tree}, 0, false},
		{"full, to a stale tag", keywordTreeResp{Tag: 9, Root: tree}, 8, false},
		{"full under tag 0", keywordTreeResp{Root: tree}, 8, false},
		{"unchanged, as asked", keywordTreeResp{Tag: 9}, 9, false},
		{"unchanged, nothing held", keywordTreeResp{Tag: 9}, 0, true},
		{"unchanged under another tag", keywordTreeResp{Tag: 9}, 8, true},
		{"unchanged under tag 0", keywordTreeResp{}, 8, true},
		{"nothing at all", keywordTreeResp{}, 0, true},
	} {
		payload, err := appendPayload(nil, tc.reply)
		if err != nil {
			t.Fatal(err)
		}
		db := DBClient{C: Loopback{H: HandlerFunc(func(string, []byte) ([]byte, error) { return payload, nil })}}
		root, tag, err := db.GetKeywordTree(tc.have)
		switch {
		case tc.bad && (!errors.Is(err, ErrKeywordTag) || root != nil || tag != 0):
			t.Errorf("%s: %+v under %#x, %v; want ErrKeywordTag", tc.what, root, tag, err)
		case !tc.bad && (err != nil || tag != tc.reply.Tag || !reflect.DeepEqual(root, tc.reply.Root)):
			t.Errorf("%s: %+v under %#x, %v", tc.what, root, tag, err)
		}
		// The router reads its shards' replies as answers to have = 0.
		if root, _, err := DecodeKeywordTree(payload); (err == nil) != (tc.reply.Root != nil) || (err == nil) != (root != nil) {
			t.Errorf("%s: DecodeKeywordTree = %+v, %v", tc.what, root, err)
		}
	}
	payload, _ := appendPayload(nil, keywordTreeResp{Tag: 9, Root: tree})
	truncated := DBClient{C: Loopback{H: HandlerFunc(func(string, []byte) ([]byte, error) { return payload[:len(payload)-2], nil })}}
	if root, _, err := truncated.GetKeywordTree(9); err == nil || root != nil {
		t.Errorf("truncated reply: %+v, %v", root, err)
	}
}
