// Package mits is a Go reproduction of the Multimedia Interactive
// TeleLearning System (MITS) from "A Broadband Multimedia TeleLearning
// System" (HPDC 1996 / Wang's U. Ottawa thesis): a Course-On-Demand
// system in which a media production center, courseware author sites, a
// courseware database, navigator user sites and an on-line facilitator
// cooperate over an ATM network, interchanging courseware as MHEG
// objects.
//
// This package is the facade: it assembles the five sites into a
// runnable school. The pieces live in internal/ — the MHEG object model
// and engine (internal/mheg, internal/mheg/engine), interchange codecs
// (internal/mheg/codec), document models and the courseware compiler
// (internal/document, internal/courseware), the courseware database
// (internal/mediastore), the client–server transport (internal/transport),
// the ATM network simulator (internal/atm), the media production center
// (internal/production, internal/media), administration (internal/school)
// and communications (internal/facilitator).
//
// Quick start:
//
//	sys := mits.NewSystem("MIRL TeleSchool")
//	course, _ := mits.SampleATMCourse()
//	sys.PublishInteractive(course, mits.CourseInfo{
//		Code: "ELG5121", Name: "ATM Technology", Program: "Engineering",
//		DocName: "atm-course", Sessions: 4, Keywords: []string{"network/atm"},
//	})
//	nav := sys.NewNavigator()
//	nav.Register(school.Profile{Name: "A Student"})
//	nav.Enroll("ELG5121")
//	nav.StartCourse("ELG5121")
//	nav.Clock().RunFor(10 * time.Second)
//	fmt.Print(nav.Screen())
package mits

import (
	"fmt"

	"mits/internal/cache"
	"mits/internal/courseware"
	"mits/internal/document"
	"mits/internal/exercise"
	"mits/internal/facilitator"
	"mits/internal/mediastore"
	"mits/internal/mheg/codec"
	"mits/internal/navigator"
	"mits/internal/production"
	"mits/internal/school"
	"mits/internal/transport"
)

// System is one assembled TeleSchool: database, administration,
// facilitation and production behind a single service mux.
type System struct {
	Store       *mediastore.Store
	School      *school.School
	Facilitator *facilitator.Facilitator
	Exercises   *exercise.Book
	Production  *production.Center

	mux *transport.Mux
}

// NewSystem assembles an empty school.
func NewSystem(name string) *System {
	return NewSystemFrom(name, nil, nil)
}

// NewSystemFrom assembles a school around preloaded components — a
// database image and school records restored from disk. Nil components
// start empty. The service mux binds to the components given here;
// replacing the exported fields afterwards does not re-bind it.
func NewSystemFrom(name string, store *mediastore.Store, sch *school.School) *System {
	if store == nil {
		store = mediastore.New()
	}
	if sch == nil {
		sch = school.New(name)
	}
	s := &System{
		Store:       store,
		School:      sch,
		Facilitator: facilitator.New(),
		Exercises:   exercise.NewBook(),
		Production:  &production.Center{},
		mux:         transport.NewMux(),
	}
	transport.RegisterStore(s.mux, s.Store)
	school.RegisterService(s.mux, s.School)
	facilitator.RegisterService(s.mux, s.Facilitator)
	exercise.RegisterService(s.mux, s.Exercises)
	return s
}

// Handler exposes the combined database + administration service for
// any transport carrier (TCP server, ATM session, loopback).
func (s *System) Handler() transport.Handler { return s.mux }

// ServeTCP starts the server sites on a TCP address (the cmd/mitsd
// daemon uses this); it returns the bound address.
func (s *System) ServeTCP(addr string) (*transport.TCPServer, string, error) {
	srv := transport.NewTCPServer(s.mux)
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, "", err
	}
	return srv, bound, nil
}

// CourseInfo describes a course being published.
type CourseInfo struct {
	Code     string // catalogue code, e.g. "ELG5121"
	Name     string
	Program  string
	DocName  string // database document name
	Sessions int    // planned sessions to complete
	Keywords []string
	// Encoding selects the interchange notation ("asn1" default, "sgml").
	Encoding string
	// IntroRef optionally references an introduction clip; when empty a
	// 20-second one is produced automatically.
	IntroRef string
}

func (ci *CourseInfo) defaults() error {
	if ci.Code == "" || ci.Name == "" || ci.Program == "" || ci.DocName == "" {
		return fmt.Errorf("mits: course info needs Code, Name, Program and DocName (got %+v)", *ci)
	}
	if ci.Sessions == 0 {
		ci.Sessions = 4
	}
	if ci.Encoding == "" {
		ci.Encoding = "asn1"
	}
	return nil
}

// CoursewareDB is the database surface publishing needs: exactly the
// calls authoring makes, satisfied both by the local *mediastore.Store
// and by transport.DBClient — so a Publisher authors into a co-located
// store or through the wire into a sharded cluster with the same code.
type CoursewareDB interface {
	PutDocument(name, title, encoding string, data []byte, keywords ...string) (int, error)
	production.ContentSink // PutContent, ContentDigest
	GetContent(ref string) (*mediastore.ContentRecord, error)
}

// Publisher authors courseware into any courseware database. System's
// Publish* methods are this over the local store; the cluster daemon
// builds one over a router-backed client so published courses shard
// and replicate like everything else.
type Publisher struct {
	DB         CoursewareDB
	Production *production.Center
	School     *school.School
}

// PublishInteractive authors an interactive multimedia course end to
// end: compile the document to MHEG, produce its referenced media into
// the content database, store the interchanged container, and list the
// course in the school catalogue. It returns the compiled manifest.
func (p *Publisher) PublishInteractive(doc *document.IMDoc, info CourseInfo) (*courseware.Compiled, error) {
	if err := info.defaults(); err != nil {
		return nil, err
	}
	out, err := courseware.CompileIMD(doc, info.DocName)
	if err != nil {
		return nil, err
	}
	return out, p.publish(out, doc.Title, info)
}

// PublishHypermedia authors a hypermedia course end to end.
func (p *Publisher) PublishHypermedia(doc *document.HyperDoc, info CourseInfo) (*courseware.Compiled, error) {
	if err := info.defaults(); err != nil {
		return nil, err
	}
	out, err := courseware.CompileHyper(doc, info.DocName)
	if err != nil {
		return nil, err
	}
	return out, p.publish(out, doc.Title, info)
}

func (p *Publisher) publish(out *courseware.Compiled, title string, info CourseInfo) error {
	enc, err := codec.ByName(info.Encoding)
	if err != nil {
		return err
	}
	data, err := enc.Encode(out.Container)
	if err != nil {
		return fmt.Errorf("mits: encode courseware: %w", err)
	}
	if _, err := p.DB.PutDocument(info.DocName, title, info.Encoding, data, info.Keywords...); err != nil {
		return err
	}
	if _, err := p.Production.ProduceForCourse(out.Container, p.DB); err != nil {
		return err
	}
	introRef := info.IntroRef
	if introRef == "" {
		introRef = "store/" + info.DocName + "/introduction.mpg"
		intro, err := p.Production.Produce(introRef, production.Hints{
			Duration: 20e9, Topic: "Introduction to " + title,
		})
		if err != nil {
			return err
		}
		if err := p.DB.PutContent(introRef, string(intro.Coding), intro.Data); err != nil {
			return err
		}
	}
	return p.School.AddCourse(school.Course{
		Code:            info.Code,
		Name:            info.Name,
		Program:         info.Program,
		PlannedSessions: info.Sessions,
		Document:        info.DocName,
		IntroRef:        introRef,
	})
}

// StockLibrary fills the digital library with reference holdings and
// indexes them as documents so keyword search finds them.
func (p *Publisher) StockLibrary() error {
	docs, err := p.Production.StockLibrary(p.DB)
	if err != nil {
		return err
	}
	for _, d := range docs {
		rec, err := p.DB.GetContent(d.Ref)
		if err != nil {
			return err
		}
		if _, err := p.DB.PutDocument(d.Name, d.Title, "raw-html", rec.Data, d.Keywords...); err != nil {
			return err
		}
	}
	return nil
}

// Publisher returns the system's authoring pipeline over its local
// store and catalogue.
func (s *System) Publisher() *Publisher {
	return &Publisher{DB: s.Store, Production: s.Production, School: s.School}
}

// PublishInteractive authors an interactive course into this system's
// local store; see Publisher.PublishInteractive.
func (s *System) PublishInteractive(doc *document.IMDoc, info CourseInfo) (*courseware.Compiled, error) {
	return s.Publisher().PublishInteractive(doc, info)
}

// PublishHypermedia authors a hypermedia course into this system's
// local store; see Publisher.PublishHypermedia.
func (s *System) PublishHypermedia(doc *document.HyperDoc, info CourseInfo) (*courseware.Compiled, error) {
	return s.Publisher().PublishHypermedia(doc, info)
}

// StockLibrary stocks this system's local library; see
// Publisher.StockLibrary.
func (s *System) StockLibrary() error { return s.Publisher().StockLibrary() }

// NewNavigator opens a navigator session against this system over
// in-process transport (the co-located configuration). Remote
// navigators dial the TCP server instead; see cmd/navigator.
func (s *System) NewNavigator() *navigator.Navigator {
	return navigator.New(navigator.Options{
		DB:     transport.Loopback{H: s.mux},
		School: transport.Loopback{H: s.mux},
	})
}

// FormatGrade renders an exercise grade for display.
var FormatGrade = navigator.FormatGrade

// DefaultContentCacheBytes sizes a remote navigator's content cache:
// comfortably holds a course's working set of MPEG objects on the
// thesis-era presentation PC without competing with decode buffers.
const DefaultContentCacheBytes = 64 << 20

// NewRemoteNavigator opens a navigator over already-dialled transport
// clients (typically two TCP connections to a mitsd server). Remote
// sessions pay a real network round trip per fetch, so they get a
// content cache by default; in-process sessions (NewNavigator) stay
// uncached.
func NewRemoteNavigator(db, sch transport.Client) *navigator.Navigator {
	return navigator.New(navigator.Options{
		DB:           db,
		School:       sch,
		ContentCache: cache.New("content:navigator", DefaultContentCacheBytes),
	})
}

// SampleATMCourse returns the worked example of the paper's Fig 4.4: an
// interactive multimedia course about ATM technology.
func SampleATMCourse() (*document.IMDoc, error) {
	doc := document.SampleATMCourse()
	return doc, doc.Validate()
}

// SampleHyperCourse returns the hypermedia sample course of Fig 4.3.
func SampleHyperCourse() (*document.HyperDoc, error) {
	doc := document.SampleHyperCourse()
	return doc, doc.Validate()
}
