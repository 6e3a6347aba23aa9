package experiments

import (
	"fmt"
	"time"

	"mits/internal/atm"
	"mits/internal/courseware"
	"mits/internal/document"
	"mits/internal/mediastore"
	"mits/internal/mheg"
	"mits/internal/mheg/codec"
	"mits/internal/production"
	"mits/internal/transport"
)

// E4Pipeline reproduces Fig 3.1: the generic MITS architecture — the
// five sites cooperating to deliver one course end to end.
func E4Pipeline() (*Report, error) {
	r := &Report{
		ID: "E4", Figure: "Fig 3.1", Title: "Generic architecture: produce → author → store → retrieve → present",
		Header: []string{"site", "work done", "output"},
	}

	// Author site: document → MHEG container.
	doc := document.SampleATMCourse()
	out, err := courseware.CompileIMD(doc, "atm")
	if err != nil {
		return nil, err
	}
	data, err := codec.ASN1().Encode(out.Container)
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, []string{"author site", fmt.Sprintf("compile %d scenes to %d MHEG objects", len(out.Scenes), len(out.Container.Items)), bytesStr(int64(len(data)))})

	// Media production center: synthesize every referenced object.
	store := mediastore.New()
	center := &production.Center{}
	produced, err := center.ProduceForCourse(out.Container, store)
	if err != nil {
		return nil, err
	}
	var mediaBytes int64
	for _, ref := range produced {
		rec, err := store.GetContent(ref)
		if err != nil {
			return nil, err
		}
		mediaBytes += int64(len(rec.Data))
	}
	r.Rows = append(r.Rows, []string{"production center", fmt.Sprintf("capture %d media objects", len(produced)), bytesStr(mediaBytes)})

	// Courseware database: store the document.
	version, err := store.PutDocument("atm-course", doc.Title, "asn1", data, "network/atm")
	if err != nil {
		return nil, err
	}
	docs, contents := store.Sizes()
	r.Rows = append(r.Rows, []string{"courseware database", fmt.Sprintf("hold %d docs + %d content objects", docs, contents), fmt.Sprintf("document v%d", version)})

	// User site: retrieve and present (virtual playback of the intro).
	mux := transport.NewMux()
	transport.RegisterStore(mux, store)
	db := transport.DBClient{C: transport.Loopback{H: mux}}
	rec, err := db.GetSelectedDoc("atm-course", 0)
	if err != nil {
		return nil, err
	}
	presented, vspan, err := presentCourse(rec, db)
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, []string{"navigator (user site)", fmt.Sprintf("decode %d objects, present course", presented), fmt.Sprintf("virtual span %v", vspan)})

	r.Notes = append(r.Notes, "facilitator site exercised separately in E20")
	r.Pass = presented == len(out.Container.Items) && vspan >= 8*time.Second
	return r, nil
}

// E5Layers reproduces Fig 3.2: the MHEG-based layered interchange
// model — per-layer byte overhead of delivering the course container
// from database to navigator over ATM.
func E5Layers() (*Report, error) {
	out, err := compiledATM()
	if err != nil {
		return nil, err
	}
	payload, err := codec.ASN1().Encode(out.Container)
	if err != nil {
		return nil, err
	}

	n := atm.New()
	user := n.AddHost("user")
	dbh := n.AddHost("db")
	sw := n.AddSwitch("sw")
	n.Connect(user, sw, 155e6, 500*time.Microsecond)
	n.Connect(sw, dbh, 155e6, 500*time.Microsecond)

	store := mediastore.New()
	if _, err := store.PutDocument("atm-course", "ATM", "asn1", payload); err != nil {
		return nil, err
	}
	mux := transport.NewMux()
	transport.RegisterStore(mux, store)
	sess, err := transport.OpenATMSession(n, user, dbh, mux, time.Millisecond)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	req, err := transport.EncodeGetDoc("atm-course")
	if err != nil {
		return nil, err
	}
	resp, err := sess.CallOver(transport.MethodGetDoc, req)
	if err != nil {
		return nil, err
	}
	_, s2c := sess.Metrics()
	cells := s2c.CellsSent
	wire := cells * atm.CellSize
	_, rspBytes := sess.Traffic()

	appBytes := int64(len(payload))
	r := &Report{
		ID: "E5", Figure: "Fig 3.2", Title: "Layered interchange model: per-layer volume for one course delivery",
		Header: []string{"layer", "unit", "bytes", "overhead vs MHEG"},
		Rows: [][]string{
			{"application (courseware)", "1 container", bytesStr(appBytes), "1.00×"},
			{"MHEG object layer", fmt.Sprintf("%d objects coded", len(out.Container.Items)), bytesStr(appBytes), "1.00×"},
			{"message protocol", "typed payload + frame", bytesStr(rspBytes), ratio(rspBytes, appBytes)},
			{"AAL5 + chunking", fmt.Sprintf("%d cells payloads", cells), bytesStr(cells * atm.CellPayloadSize), ratio(cells*atm.CellPayloadSize, appBytes)},
			{"ATM wire (53B cells)", fmt.Sprintf("%d cells", cells), bytesStr(wire), ratio(wire, appBytes)},
		},
		Notes: []string{fmt.Sprintf("navigator received %s and can decode it (%d bytes)", bytesStr(int64(len(resp))), len(resp))},
		Pass:  wire > appBytes && cells > 0,
	}
	return r, nil
}

func ratio(a, b int64) string { return fmt.Sprintf("%.2f×", float64(a)/float64(b)) }

// E6Processing reproduces Figs 3.3–3.4: the courseware processing
// model — production, storage (with update/versioning) and
// presentation phases of one courseware life cycle.
func E6Processing() (*Report, error) {
	out, err := compiledATM()
	if err != nil {
		return nil, err
	}
	store := mediastore.New()
	center := &production.Center{}

	// Production phase.
	produced, err := center.ProduceForCourse(out.Container, store)
	if err != nil {
		return nil, err
	}

	// Storage phase: initial publication + a content-and-scenario
	// update ("it can be updated in both the content and the scenario
	// at anytime").
	data, err := codec.ASN1().Encode(out.Container)
	if err != nil {
		return nil, err
	}
	v1, err := store.PutDocument("atm-course", "ATM Technology", "asn1", data, "network/atm")
	if err != nil {
		return nil, err
	}
	doc2 := document.SampleATMCourse()
	doc2.Title = "ATM Technology (2nd edition)"
	out2, err := courseware.CompileIMD(doc2, "atm")
	if err != nil {
		return nil, err
	}
	data2, err := codec.ASN1().Encode(out2.Container)
	if err != nil {
		return nil, err
	}
	v2, err := store.PutDocument("atm-course", doc2.Title, "asn1", data2, "network/atm", "updated")
	if err != nil {
		return nil, err
	}

	// Presentation phase.
	mux := transport.NewMux()
	transport.RegisterStore(mux, store)
	db := transport.DBClient{C: transport.Loopback{H: mux}}
	rec, err := db.GetSelectedDoc("atm-course", 0)
	if err != nil {
		return nil, err
	}
	presented, vspan, err := presentCourse(rec, db)
	if err != nil {
		return nil, err
	}
	_, contentReads, bytesOut := store.Stats()

	r := &Report{
		ID: "E6", Figure: "Figs 3.3–3.4", Title: "Courseware processing model: production / storage / presentation",
		Header: []string{"phase", "metric", "value"},
		Rows: [][]string{
			{"production", "media objects captured", fmt.Sprint(len(produced))},
			{"storage", "document versions (update cycle)", fmt.Sprintf("v%d → v%d", v1, v2)},
			{"storage", "keyword index finds updated doc", fmt.Sprint(len(store.DocsByKeyword("updated")))},
			{"presentation", "MHEG objects decoded", fmt.Sprint(presented)},
			{"presentation", "content fetches / bytes served", fmt.Sprintf("%d / %s", contentReads, bytesStr(bytesOut))},
			{"presentation", "virtual playback span", fmt.Sprint(vspan)},
		},
		Pass: v2 == 2 && presented > 0 && contentReads > 0,
	}
	return r, nil
}

// E8Authoring reproduces Figs 4.1–4.2: the four authoring layers —
// teaching architecture choice, document model, MHEG object coding,
// media layer — with the output of each mapping.
func E8Authoring() (*Report, error) {
	r := &Report{
		ID: "E8", Figure: "Figs 4.1–4.2", Title: "Authoring layers: architecture → document → objects → media",
		Header: []string{"layer", "activity", "output"},
	}
	// Teaching architecture layer.
	profile := courseware.StudentProfile{SkillTraining: false, Sophisticated: false}
	arch := courseware.ChooseArchitecture(profile)
	fw := courseware.FrameworkFor(arch)
	r.Rows = append(r.Rows, []string{"teaching architecture", "analyze profile, choose framework", fmt.Sprintf("%v → %v model", arch, fw.Model)})

	// Document layer: skeleton then the full sample document.
	imd, _, err := fw.Skeleton("ATM Technology", []string{"Introduction", "Cells", "Switching", "Assessment"})
	if err != nil {
		return nil, err
	}
	doc := document.SampleATMCourse()
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, []string{"document model", "skeleton + fill + validate", fmt.Sprintf("%d skeleton scenes, %d authored scenes", len(imd.AllScenes()), len(doc.AllScenes()))})

	// Object layer: compile to MHEG.
	out, err := courseware.CompileIMD(doc, "atm")
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, []string{"MHEG object layer", "compile document", fmt.Sprintf("%d objects, %d media refs", len(out.Container.Items), len(out.MediaRefs))})

	// Media layer.
	store := mediastore.New()
	produced, err := (&production.Center{}).ProduceForCourse(out.Container, store)
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, []string{"media layer", "produce referenced media", fmt.Sprintf("%d objects", len(produced))})

	r.Pass = len(out.Container.Items) > 20 && len(produced) == len(uniqueStrings(out.MediaRefs))
	return r, nil
}

func uniqueStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// presentCourse ingests a fetched course document into a fresh engine
// and plays its root to completion, returning the number of decoded
// models and the virtual span.
func presentCourse(rec *mediastore.DocRecord, db transport.DBClient) (int, time.Duration, error) {
	enc, err := codec.ByName(rec.Encoding)
	if err != nil {
		return 0, 0, err
	}
	obj, err := enc.Decode(rec.Data)
	if err != nil {
		return 0, 0, err
	}
	container, ok := obj.(*mheg.Container)
	if !ok {
		return 0, 0, fmt.Errorf("experiments: document is not a container")
	}
	nav := newLocalPlayer(db)
	if err := nav.load(container); err != nil {
		return 0, 0, err
	}
	span, err := nav.playRoot()
	if err != nil {
		return 0, 0, err
	}
	return len(container.Items), span, nil
}
