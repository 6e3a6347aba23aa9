package transport

import (
	"fmt"
	"testing"

	"mits/internal/mediastore"
	"mits/internal/transport/wiretest"
)

// recordWire drives every db.* stub once with fixed inputs.
func recordWire() (*wiretest.Recorder, error) {
	mux := NewMux()
	RegisterStore(mux, mediastore.New())
	rec := &wiretest.Recorder{Next: Loopback{H: mux}}
	db := DBClient{C: rec}

	var version int
	var doc *mediastore.DocRecord
	var names []string
	var content *mediastore.ContentRecord
	var tree, again *mediastore.KeywordNode
	var tag, digest uint64
	for _, step := range []func() error{
		func() (err error) {
			version, err = db.PutDocument("elg5121.doc", "Multimedia", "asn1", []byte{0x30, 0x03, 0x02, 0x01, 0x07}, "Engineering/ATM")
			return
		},
		func() error { return db.PutContent("intro/elg5121", "mpeg", []byte("frame-bytes"), "Engineering/ATM") },
		func() error { _, err := db.GetListDoc(); return err },
		func() (err error) { doc, err = db.GetSelectedDoc("elg5121.doc", 0); return },
		func() (err error) { tree, tag, err = db.GetKeywordTree(0); return },
		func() (err error) { again, _, err = db.GetKeywordTree(tag); return },
		func() (err error) { names, err = db.GetDocByKeyword("Engineering/ATM"); return },
		func() (err error) { content, err = db.GetContent("intro/elg5121"); return },
		func() (err error) { digest, err = db.ContentDigest("intro/elg5121"); return },
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	if version != 1 || doc.Title != "Multimedia" || doc.Version != 1 {
		return nil, fmt.Errorf("PutDocument = %d, GetSelectedDoc = %+v", version, doc)
	}
	if len(names) != 1 || names[0] != "elg5121.doc" || string(content.Data) != "frame-bytes" {
		return nil, fmt.Errorf("GetDocByKeyword = %v, GetContent = %+v", names, content)
	}
	if tree == nil || tag != tree.Digest() || again != nil {
		return nil, fmt.Errorf("GetKeywordTree(0) = %+v tag %#x, GetKeywordTree(tag) = %+v", tree, tag, again)
	}
	if want := mediastore.Digest("mpeg", []byte("frame-bytes")); digest != want {
		return nil, fmt.Errorf("ContentDigest = %#x, want %#x", digest, want)
	}
	return rec, nil
}

// TestWireGolden compares the request/response payloads of all eight
// db.* stubs (the typed-RPC layout, but for db.GetContent's reply, a
// content chunk) with testdata/wire.golden; RequestKey must pull the
// routing key out of each keyed request. The fixture was regenerated
// on purpose when db.ContentDigest was added: its line is the only one
// that changed.
func TestWireGolden(t *testing.T) {
	wire, err := recordWire()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(wire.Methods()); got != 8 {
		t.Errorf("%d db.* methods exercised, want all 8", got)
	}
	keys := map[string]string{
		MethodPutDoc: "elg5121.doc", MethodGetDoc: "elg5121.doc",
		MethodPutContent: "intro/elg5121", MethodGetContent: "intro/elg5121",
		MethodContentDigest: "intro/elg5121",
	}
	for _, call := range wire.Calls {
		argless := call.Method == MethodListDocs
		if argless != (call.Req == nil) {
			t.Errorf("%s: nil request = %v", call.Method, call.Req == nil)
		}
		if (call.Method == MethodPutContent) != (call.Resp == nil) {
			t.Errorf("%s: nil response = %v", call.Method, call.Resp == nil)
		}
		key, err := RequestKey(call.Method, call.Req)
		if want, keyed := keys[call.Method]; keyed && (err != nil || key != want) {
			t.Errorf("RequestKey(%s) = %q, %v; want %q", call.Method, key, err, want)
		} else if !keyed && err == nil {
			t.Errorf("RequestKey(%s) = %q for an unkeyed method", call.Method, key)
		}
	}
	wire.Golden(t, "testdata/wire.golden")
}

// TestWireRepeatCalls: the script run again in the same process puts
// the same bytes on the wire, requests and responses alike.
func TestWireRepeatCalls(t *testing.T) {
	wire, err := recordWire()
	if err != nil {
		t.Fatal(err)
	}
	wire.Repeat(t, recordWire)
}

// TestGetSelectedDocUnchangedReply: asked with the digest it holds, the
// caller is sent the record's header alone — no byte of Data — and a
// reply that claims "unchanged" to a digest not asked about is refused.
func TestGetSelectedDocUnchangedReply(t *testing.T) {
	store := mediastore.New()
	data := make([]byte, 7<<10)
	if _, err := store.PutDocument("course", "Course", "asn1", data, "network/atm"); err != nil {
		t.Fatal(err)
	}
	mux := NewMux()
	RegisterStore(mux, store)
	rec := &wiretest.Recorder{Next: Loopback{H: mux}}
	db := DBClient{C: rec}
	full, err := db.GetSelectedDoc("course", 0)
	if err != nil {
		t.Fatal(err)
	}
	same, err := db.GetSelectedDoc("course", full.Digest)
	if err != nil || same.Data != nil || same.Digest != full.Digest {
		t.Fatalf("GetSelectedDoc(held digest) = %+v, %v", same, err)
	}
	fullReply, sameReply := len(rec.Calls[0].Resp), len(rec.Calls[1].Resp)
	t.Logf("%s reply: %d bytes whole, %d bytes unchanged", MethodGetDoc, fullReply, sameReply)
	if fullReply-sameReply < len(data) {
		t.Errorf("the unchanged reply is %d bytes, the whole one %d: Data went with it", sameReply, fullReply)
	}

	liar := NewMux()
	Route(liar, MethodGetDoc, func(getDocReq) (*mediastore.DocRecord, error) {
		return &mediastore.DocRecord{Name: "course", Digest: full.Digest}, nil
	})
	for _, have := range []uint64{0, full.Digest ^ 1} {
		if got, err := (DBClient{C: Loopback{H: liar}}).GetSelectedDoc("course", have); err == nil {
			t.Errorf("an unchanged reply to digest %#x was taken: %+v", have, got)
		}
	}
}
