package transport

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"mits/internal/mediastore"
	"mits/internal/transport/wiretest"
)

// wire is recorded while the package initialises: gob numbers types in
// the order a process first meets them, so the bytes are only
// reproducible before any other test has touched gob.
var wire, wireErr = recordWire()

// gobContentReply is the db.GetContent reply of the fixture's script as
// this route sent it while it still answered in gob: a ContentRecord.
// Nothing sends it any more; a peer that does is refused.
const gobContentReply = "45ff950301010d436f6e74656e745265636f726401ff960001040103526566010c000106436f64696e67010c0001084b6579776f72647301ff8200010444617461010a00000016ff81020101085b5d737472696e6701ff8200010c000037ff96010d696e74726f2f656c673531323101046d70656701010f456e67696e656572696e672f41544d010b6672616d652d627974657300"

// gobGetDocCall is the fixture's db.Get_Selected_Doc line from before the
// request named the digest of the copy held and the record carried its
// own: the line the fixture was regenerated for, once, on purpose.
const gobGetDocCall = "db.Get_Selected_Doc 20ff8703010109676574446f6352657101ff8800010101044e616d65010c00000010ff88010b656c67353132312e646f6300 5aff8903010109446f635265636f726401ff8a00010601044e616d65010c0001055469746c65010c000108456e636f64696e67010c0001084b6579776f72647301ff8200010756657273696f6e010400010444617461010a00000016ff81020101085b5d737472696e6701ff8200010c00003dff8a010b656c67353132312e646f63010a4d756c74696d65646961010461736e3101010f456e67696e656572696e672f41544d01020105300302010700\n"

// fixtureBeforeDigest reads the fixture with its one db.Get_Selected_Doc
// line put back to gobGetDocCall, returning the lines and the moved one.
func fixtureBeforeDigest(t *testing.T) (lines []string, moved string) {
	t.Helper()
	golden, err := os.ReadFile("testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	lines = strings.SplitAfter(string(golden), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, MethodGetDoc+" ") {
			if moved != "" {
				t.Fatalf("two %s calls in the fixture", MethodGetDoc)
			}
			moved, lines[i] = line, gobGetDocCall
		}
	}
	if moved == "" {
		t.Fatalf("no %s call in the fixture", MethodGetDoc)
	}
	return lines, moved
}

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
	var tag uint64
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
	return rec, nil
}

// TestWireGolden compares the request/response payloads of all seven
// db.* stubs (gob, but for db.GetContent's reply) with testdata/wire.golden, captured from the
// hand-written stubs this layer replaced; RequestKey must still pull
// the routing key out of each keyed request.
func TestWireGolden(t *testing.T) {
	if wireErr != nil {
		t.Fatal(wireErr)
	}
	if got := len(wire.Methods()); got != 7 {
		t.Errorf("%d gob db.* methods exercised, want all 7", got)
	}
	keys := map[string]string{
		MethodPutDoc: "elg5121.doc", MethodGetDoc: "elg5121.doc",
		MethodPutContent: "intro/elg5121", MethodGetContent: "intro/elg5121",
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

// TestWireRepeatCalls: the golden pins each method's first call, which
// meets fresh codecs; calls two and three meet primed ones and must put
// the same bytes on the wire, requests and responses alike.
func TestWireRepeatCalls(t *testing.T) {
	if wireErr != nil {
		t.Fatal(wireErr)
	}
	wire.Repeat(t, recordWire)
}

// TestWireGoldenMovedOneReply: the fixture was regenerated on purpose,
// for exactly one payload. With db.GetContent's reply put back to the gob
// ContentRecord it used to be (and db.Get_Selected_Doc's line to the one
// before its digest), the file is the fixture of the commit before — so
// every other method's request and reply, and db.GetContent's request,
// are the bytes they were — and the reply that took its place is the
// whole object as one terminal chunk, keywords attached.
func TestWireGoldenMovedOneReply(t *testing.T) {
	const before = "88807cf6325b5617c1c78694172a1f6d347147d3c7d7c36fe71354de7b40af0f" // sha256 of the fixture at PR 21
	lines, _ := fixtureBeforeDigest(t)
	moved := 0
	for i, line := range lines {
		call := strings.Fields(line)
		if len(call) != 3 || call[0] != MethodGetContent {
			continue
		}
		moved++
		lines[i] = call[0] + " " + call[1] + " " + gobContentReply + "\n"
		reply, err := hex.DecodeString(call[2])
		if err != nil {
			t.Fatal(err)
		}
		ck, err := DecodeContentChunk(reply)
		if err != nil {
			t.Fatalf("the db.GetContent reply is not a chunk: %v", err)
		}
		if ck.Ref != "intro/elg5121" || ck.Coding != "mpeg" || ck.Index != 0 || ck.Offset != 0 || !ck.Last ||
			ck.Total != uint64(len(ck.Data)) || string(ck.Data) != "frame-bytes" || len(ck.Keywords) != 1 || ck.Keywords[0] != "Engineering/ATM" {
			t.Errorf("the db.GetContent reply is not the whole object in one chunk: %+v", ck)
		}
	}
	if moved != 1 {
		t.Fatalf("%d db.GetContent calls in the fixture, want 1", moved)
	}
	if sum := sha256.Sum256([]byte(strings.Join(lines, ""))); hex.EncodeToString(sum[:]) != before {
		t.Errorf("with the old db.GetContent reply put back the fixture hashes to %x, want %s: another payload moved", sum, before)
	}
}

// TestWireGoldenMovedGetSelectedDoc: the fixture was regenerated once
// more, for exactly one line. With db.Get_Selected_Doc's put back, every
// other line is byte-identical to the fixture before the document digest;
// the line that took its place asks with no digest held and is answered
// with the whole record, stamped with the digest of its encoding and data.
func TestWireGoldenMovedGetSelectedDoc(t *testing.T) {
	const before = "99e03d5f677d1635a7c12552688fef72c1eb2050043c9738f555b76b08fc5451" // sha256 of the fixture before the digest
	lines, moved := fixtureBeforeDigest(t)
	if sum := sha256.Sum256([]byte(strings.Join(lines, ""))); hex.EncodeToString(sum[:]) != before {
		t.Errorf("with the old %s line put back the fixture hashes to %x, want %s: another line moved", MethodGetDoc, sum, before)
	}
	call := strings.Fields(moved)
	if len(call) != 3 {
		t.Fatalf("%s line has %d fields", MethodGetDoc, len(call))
	}
	payload, err := hex.DecodeString(call[1])
	if err != nil {
		t.Fatal(err)
	}
	var req getDocReq
	if err := gobDecode(payload, &req); err != nil || req != (getDocReq{Name: "elg5121.doc"}) {
		t.Errorf("request %+v, %v; want elg5121.doc with no digest held", req, err)
	}
	if payload, err = hex.DecodeString(call[2]); err != nil {
		t.Fatal(err)
	}
	rec := new(mediastore.DocRecord)
	if err := gobDecode(payload, rec); err != nil {
		t.Fatal(err)
	}
	fresh := mediastore.New()
	if _, err := fresh.PutDocument("elg5121.doc", "Multimedia", "asn1", []byte{0x30, 0x03, 0x02, 0x01, 0x07}); err != nil {
		t.Fatal(err)
	}
	want, _ := fresh.GetDocument("elg5121.doc")
	if rec.Digest == 0 || rec.Digest != want.Digest || len(rec.Data) != 5 || len(rec.Keywords) != 1 {
		t.Errorf("reply %+v, want the whole record under digest %#x", rec, want.Digest)
	}
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
