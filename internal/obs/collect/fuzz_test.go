package collect

import (
	"reflect"
	"runtime"
	"testing"

	"mits/internal/obs"
	"mits/internal/transport"
	"mits/internal/transport/wiretest"
)

// FuzzWireDecode throws hostile payloads at a collector's obs.Export
// route: it must never panic, never allocate more than 32 bytes per
// input byte (plus 4 KB), and a batch it accepts must survive a trip
// back through Invoke unchanged — the exporter only ever sends what
// Invoke encodes. Seeds cover the honest shapes (empty batch, mixed
// spans sharing strings, negative timestamps), each cut short, and an
// empty payload, a lone byte and an absurd span count; the checked-in
// corpus under testdata/fuzz/FuzzWireDecode replays on every plain
// `go test` run.
func FuzzWireDecode(f *testing.F) {
	for _, b := range []Batch{
		{Site: "edge-a"},
		{Site: "core", Spans: []SpanRecord{
			{Trace: 0xdeadbeef, ID: 1, Name: "GetDoc", Kind: "server", Site: "core", StartNS: 1000, DurNS: 250},
			{Trace: 0xdeadbeef, ID: 2, Parent: 1, Name: "db.GetContent", Kind: "client", Site: "core", StartNS: 1100, DurNS: 90, Err: "store: not found"},
			{Trace: 0xdeadbeef, ID: 3, Parent: 1, Name: "GetDoc", Kind: "server", Site: "core", StartNS: -7, DurNS: 1},
		}},
	} {
		rec := &wiretest.Recorder{Next: transport.Loopback{H: batchMux(func(Batch) {})}}
		if err := transport.Invoke(rec, obs.SpanContext{}, transport.MethodObsExport, b, nil); err != nil {
			f.Fatal(err)
		}
		enc := rec.Calls[0].Req
		f.Add(enc)
		f.Add(enc[:len(enc)-2]) // cut mid-span, or mid-count
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 7}) // absurd span count
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []Batch
		col := transport.Loopback{H: batchMux(func(b Batch) { got = append(got, b) })}
		call := func() error {
			_, _, err := col.CallInTracePooled(obs.SpanContext{}, transport.MethodObsExport, data)
			return err
		}
		// TotalAlloc is the process's: only the least of four counts
		// over the limit fails.
		limit := 32*uint64(len(data)) + 4<<10
		var err error
		for try := 0; ; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = call()
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n <= limit {
				break
			} else if try == 3 {
				t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", len(data), n, limit)
			}
		}
		if err != nil {
			return
		}
		if err := transport.Invoke(col, obs.SpanContext{}, transport.MethodObsExport, got[0], nil); err != nil {
			t.Fatalf("accepted batch does not travel again: %v", err)
		}
		if !reflect.DeepEqual(got[0], got[len(got)-1]) {
			t.Fatalf("round trip changed batch:\n%+v\n%+v", got[0], got[len(got)-1])
		}
	})
}
