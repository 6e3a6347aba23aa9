package bench

import (
	"fmt"

	"mits"
	"mits/internal/media"
	"mits/internal/navigator"
	"mits/internal/school"
)

// browse_hot: small ops only. `clients` students on navigators with the
// deployment's 64 MB cache read 8 KB holdings (Zipf s=1.1 over 512: a
// 4 MB working set that fits the cache), search by keyword, list a
// program's courses and fetch the keyword tree, in a fixed 60/25/10/5
// mix. The byte path is idle: this is where a chunk-stream optimisation
// must show no change.
const (
	holdingCount = 512
	holdingBytes = 8 << 10
	holdingZipf  = 1.1
	treeFanout   = 8 // keyword tree: 8 x 8 x 8, one holding per leaf
	programCount = 8
	coursesEach  = 8
)

func holdingRef(i int) string { return fmt.Sprintf("library/h%03d.html", i) }

// keywordOf places holding i at a leaf of the 3-level keyword tree.
func keywordOf(i int) string {
	return fmt.Sprintf("a%d/b%d/c%d", i/(treeFanout*treeFanout), i/treeFanout%treeFanout, i%treeFanout)
}

// searchKey is the j-th second-level keyword: it matches treeFanout holdings.
func searchKey(j int) string { return fmt.Sprintf("a%d/b%d", j/treeFanout, j%treeFanout) }

func programName(i int) string { return fmt.Sprintf("Program %d", i) }

var browseHot = workloadDef{
	name: BrowseHot,
	plan: func(seed uint64, clients int) *plan {
		p := &plan{Workload: BrowseHot, Seed: seed}
		z := newZipf(holdingCount, holdingZipf)
		for c := 0; c < clients; c++ {
			r := newRNG(mix(seed, "student", c))
			ops := make([]planOp, 1<<16)
			for i := range ops {
				switch d := r.intn(100); {
				case d < 60:
					ops[i] = planOp{Kind: opRead, A: uint32(z.draw(r))}
				case d < 85:
					ops[i] = planOp{Kind: opSearch, A: uint32(r.intn(treeFanout * treeFanout))}
				case d < 95:
					ops[i] = planOp{Kind: opCourses, A: uint32(r.intn(programCount))}
				default:
					ops[i] = planOp{Kind: opTree}
				}
			}
			p.Actors = append(p.Actors, ops)
		}
		return p
	},
	build: func(seed uint64, clients int, tr *tracer) (*site, error) {
		sys := mits.NewSystem("mitsbench")
		crcs := make([]uint32, holdingCount)
		refs := make([]string, holdingCount)
		for i := range crcs {
			ref := holdingRef(i)
			refs[i] = ref
			data := makeContent(seed, ref, 1, holdingBytes)
			crcs[i] = digest(data)
			if err := sys.Store.PutContent(ref, string(media.CodingHTML), data, keywordOf(i)); err != nil {
				return nil, err
			}
			name := fmt.Sprintf("h%03d", i)
			if _, err := sys.Store.PutDocument(name, "Holding "+name, "raw-html", data, keywordOf(i)); err != nil {
				return nil, err
			}
		}
		for pgm := 0; pgm < programCount; pgm++ {
			for c := 0; c < coursesEach; c++ {
				code := fmt.Sprintf("P%dC%d", pgm, c)
				if err := sys.School.AddCourse(school.Course{Code: code, Name: "Course " + code, Program: programName(pgm), PlannedSessions: 4}); err != nil {
					return nil, err
				}
			}
		}
		st, err := openStore(sys, clients, tr)
		if err != nil {
			return nil, err
		}
		s := &site{close: st.close}
		for c := 0; c < clients; c++ {
			a, nav := st.navigator(true)
			b := &browser{nav: nav, refs: refs, crcs: crcs, verified: make([]*byte, holdingCount)}
			s.actors = append(s.actors, a)
			s.run = append(s.run, func(a *actor, ops []planOp, stop <-chan struct{}) {
				loop(stop, func() {
					if b.step(a, a.next(ops)) == nil {
						a.rec.credit(1)
					}
				})
			})
		}
		return s, nil
	},
	metrics: func(w *window, into map[string]float64) {
		into["ops_per_s"] = w.rate()
		into["op_us_p50"] = w.pct(50, opRead, opSearch, opCourses, opTree)
		into["rpc_us_p50"] = w.pct(50, opSearch, opCourses, opTree)
		into["rpc_us_p95"] = w.pct(95, opSearch, opCourses, opTree)
		w.common(into)
	},
}

// browser is one student's browsing state.
type browser struct {
	nav  *navigator.Navigator
	refs []string
	crcs []uint32
	// verified[i] is the first byte of the record of holding i that was
	// last digested in full. Cached records are shared and immutable, so
	// a hit that returns the same bytes again needs no second pass — and
	// a pass would cost more than the hit it checks.
	verified []*byte
}

func (b *browser) step(a *actor, op planOp) error {
	switch op.Kind {
	case opRead:
		ref := b.refs[op.A]
		return a.do(opRead, ref, noDue, func() error {
			rec, err := b.nav.ReadLibrary(ref)
			if err != nil {
				return err
			}
			if len(rec.Data) != holdingBytes || contentVersion(rec.Data) != 1 {
				return a.mismatch("%s: %d bytes, version %d", ref, len(rec.Data), contentVersion(rec.Data))
			}
			if b.verified[op.A] != &rec.Data[0] {
				if got := digest(rec.Data); got != b.crcs[op.A] {
					return a.mismatch("%s: crc %08x, published %08x", ref, got, b.crcs[op.A])
				}
				b.verified[op.A] = &rec.Data[0]
			}
			a.rec.bytes += holdingBytes
			return nil
		})
	case opSearch:
		return a.do(opSearch, "", noDue, func() error {
			names, err := b.nav.SearchLibrary(searchKey(int(op.A)))
			if err == nil && len(names) != treeFanout {
				err = a.mismatch("search %s: %d documents, want %d", searchKey(int(op.A)), len(names), treeFanout)
			}
			return err
		})
	case opCourses:
		return a.do(opCourses, "", noDue, func() error {
			cs, err := b.nav.CoursesIn(programName(int(op.A)))
			if err == nil && len(cs) != coursesEach {
				err = a.mismatch("courses in %s: %d, want %d", programName(int(op.A)), len(cs), coursesEach)
			}
			return err
		})
	default:
		return a.do(opTree, "", noDue, func() error {
			tree, err := b.nav.LibraryTree()
			if err == nil && len(tree.Children) != treeFanout {
				err = a.mismatch("keyword tree: %d top-level keywords, want %d", len(tree.Children), treeFanout)
			}
			return err
		})
	}
}
