package bench

import (
	"fmt"
	"time"

	"mits/internal/courseware"
	"mits/internal/document"
	"mits/internal/media"
	"mits/internal/mediastore"
	"mits/internal/mheg/codec"
	"mits/internal/transport"
)

// A few layer costs are cheaper to call than to trace: they sit inside
// a span and no public seam separates them from it. They are timed here
// directly, single-threaded, on inputs of the workload's size.

// perCall times fn: the median over five batches of the mean cost of
// one call, in nanoseconds.
func perCall(fn func() error) (float64, error) {
	const batch = 200
	// First-call costs (pools, lazy tables) are not the layer's steady cost.
	if err := fn(); err != nil {
		return 0, err
	}
	var means []float64
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		means = append(means, float64(time.Since(start))/batch)
	}
	return median(means), nil
}

// microTimings returns the direct-call layer metrics the workload owns.
func microTimings(workload string, seed uint64) (map[string]float64, error) {
	const ref = "micro/object.bin"
	out := map[string]float64{}
	object := makeContent(seed, ref, 1, objectBytes)
	time1 := func(name string, scale float64, fn func() error) error {
		ns, err := perCall(fn)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", name, err)
		}
		out[name] = ns / scale
		return nil
	}
	if workload == StreamCold || workload == ClusterRW {
		store := mediastore.New()
		if err := store.PutContent(ref, string(media.CodingASCII), object); err != nil {
			return nil, err
		}
		if err := time1("mediastore.borrow_ns", 1, func() error {
			_, err := store.GetContentBorrow(ref)
			return err
		}); err != nil {
			return nil, err
		}
	}
	if workload == ClusterRW {
		store := mediastore.New()
		if err := time1("mediastore.put_us", 1e3, func() error {
			return store.PutContent(ref, string(media.CodingASCII), object)
		}); err != nil {
			return nil, err
		}
	}
	if workload == StreamCold {
		chunk := transport.ContentChunk{Ref: ref, Coding: string(media.CodingMPEG),
			Total: uint64(len(object)), Last: true, Data: object}
		buf := make([]byte, 0, len(object)+256)
		if err := time1("transport.chunk_codec_ns", 1, func() error {
			wire, err := transport.AppendContentChunk(buf[:0], &chunk)
			if err != nil {
				return err
			}
			_, err = transport.DecodeContentChunk(wire)
			return err
		}); err != nil {
			return nil, err
		}
	}
	if workload == SessionMix {
		// Every course is the sample course under another title, so
		// this is the container the most popular course opens.
		compiled, err := courseware.CompileIMD(document.SampleATMCourse(), "course-00")
		if err != nil {
			return nil, err
		}
		enc, err := codec.ByName("asn1")
		if err != nil {
			return nil, err
		}
		wire, err := enc.Encode(compiled.Container)
		if err != nil {
			return nil, err
		}
		if err := time1("mheg.decode_us", 1e3, func() error {
			_, err := enc.Decode(wire)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return out, nil
}
