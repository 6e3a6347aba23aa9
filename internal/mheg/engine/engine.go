// Package engine implements the MHEG engine of §2.2.2.2 and §3.4.3: it
// turns interchanged form (a) byte streams into decoded form (b) model
// objects, instantiates form (c) run-time objects from them, interprets
// links and actions, and drives presentation on a virtual clock.
//
// The engine is the module installed at every MITS site (Fig 3.4); the
// courseware navigator drives it at the presentation site, and the
// courseware editor uses its encoder half at the author site.
package engine

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"mits/internal/mheg"
	"mits/internal/mheg/codec"
	"mits/internal/obs"
	"mits/internal/sim"
)

// RTID identifies a run-time (form (c)) object within one engine.
type RTID int

// EventKind classifies render events emitted to the presentation
// service.
type EventKind int

// Render events.
const (
	EvCreated EventKind = iota + 1
	EvRan
	EvPaused
	EvResumed
	EvStopped
	EvFinished
	EvDeleted
	EvMoved
	EvResized
	EvVisibility
	EvVolume
	EvSpeed
	EvHighlight
	EvData
	EvScript
)

var eventNames = map[EventKind]string{
	EvCreated: "created", EvRan: "ran", EvPaused: "paused", EvResumed: "resumed",
	EvStopped: "stopped", EvFinished: "finished", EvDeleted: "deleted",
	EvMoved: "moved", EvResized: "resized", EvVisibility: "visibility",
	EvVolume: "volume", EvSpeed: "speed", EvHighlight: "highlight",
	EvData: "data", EvScript: "script",
}

func (k EventKind) String() string {
	if s, ok := eventNames[k]; ok {
		return s
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one presentation event delivered to the renderer — the
// engine's interface to the User Interface and Presentation Service of
// Fig 3.4.
type Event struct {
	At      sim.Time
	Kind    EventKind
	RT      RTID
	Model   mheg.ID
	Channel string
	Detail  string
}

func (e Event) String() string {
	return fmt.Sprintf("[%v] %v rt=%d model=%v %s", e.At, e.Kind, e.RT, e.Model, e.Detail)
}

// Renderer receives presentation events. The navigator's virtual screen
// implements it; tests use a recording renderer.
type Renderer interface {
	RenderEvent(Event)
}

// RendererFunc adapts a function to the Renderer interface.
type RendererFunc func(Event)

// RenderEvent implements Renderer.
func (f RendererFunc) RenderEvent(e Event) { f(e) }

// ContentResolver fetches referenced content data from the courseware
// database (the separate content DB of §3.4.2). The transport layer
// provides the remote implementation.
type ContentResolver interface {
	FetchContent(ref string) ([]byte, error)
}

// ResolverFunc adapts a function to ContentResolver.
type ResolverFunc func(string) ([]byte, error)

// FetchContent implements ContentResolver.
func (f ResolverFunc) FetchContent(ref string) ([]byte, error) { return f(ref) }

// Stats counts engine activity for the experiments.
type Stats struct {
	ObjectsDecoded int
	RTCreated      int
	RTDeleted      int
	LinksFired     int
	ActionsApplied int
	ContentFetches int   // resolver round trips
	BytesFetched   int64 // content bytes moved from the database
	CacheHits      int   // content served from the model-object cache
}

// SocketKind classifies what is plugged into a run-time composite's
// socket (§2.2.2.2).
type SocketKind int

// Socket kinds.
const (
	EmptySocket SocketKind = iota
	PresentableSocket
	StructuralSocket
)

func (k SocketKind) String() string {
	switch k {
	case EmptySocket:
		return "empty"
	case PresentableSocket:
		return "presentable"
	case StructuralSocket:
		return "structural"
	default:
		return fmt.Sprintf("SocketKind(%d)", int(k))
	}
}

// Socket is one slot of a run-time composite.
type Socket struct {
	Kind SocketKind
	RT   RTID // 0 when empty
}

// RTObject is a form (c) run-time object: a presentable copy of a model
// object whose attribute values can change without affecting the model
// (§2.2.2.2).
type RTObject struct {
	ID      RTID
	Model   mheg.ID
	Channel string

	Running    int64 // StatusNotRunning / StatusRunning / StatusFinished
	Selections int64
	Selection  mheg.Value // current selection state (menus, entry fields)
	Visible    bool
	Highlight  bool
	Position   mheg.Point
	Size       mheg.Size
	Volume     int
	Speed      int // percent, 100 = normal
	Data       mheg.Value

	// Sockets holds the run-time components of a composite.
	Sockets []Socket

	obj       mheg.Object // the model; the register holds it while the object lives
	deleted   bool
	finishEv  *sim.Event
	remaining time.Duration // set while paused
	startedAt sim.Time
	serialPos int      // next component during serial composite playback
	onFinish  []func() // internal watchers resumed when this object finishes
}

// Engine is one MHEG engine instance.
type Engine struct {
	clock     *sim.Clock
	enc       codec.Encoding
	renderers []Renderer
	resolver  ContentResolver

	// models is the register of form (b) objects. After LoadIndex it is
	// the adopted Index itself, shared with its other adopters, and
	// adopted stays true until ownModels clones it for a write.
	models  map[mheg.ID]mheg.Object
	adopted bool

	// rts is the register of form (c) objects, indexed by RTID: IDs are
	// handed out densely from 1 and never reused, and a deleted object's
	// slot is nil. live counts the non-nil slots.
	rts     []*RTObject
	live    int
	byModel map[mheg.ID][]RTID

	// slab and idArena are the unused tails from which NewRT carves run-
	// time objects and each model's first byModel list (register).
	slab    []RTObject
	idArena []RTID

	// activeLinks holds links currently armed, keyed by (source, attr).
	activeLinks map[linkKey][]*mheg.Link

	// contentCache caches fetched content data per reference, modelling
	// reuse of model objects across run-time instances. DisableCache
	// turns it off for the E19 ablation.
	contentCache map[string][]byte
	DisableCache bool

	Stats Stats

	metrics *counters

	// retired is set by Retire: the engine's delayed action items, which
	// keep no clock handle, check it when they fire.
	retired bool
}

// counters are the engine's obs series: the interpretation hot paths
// (links and actions fire per status change), resolver failures on
// either fetch path (fetchErrs), and the three form transitions — a→b
// decode, b→c instantiation and c destruction. They are resolved from
// the registry once per process (engineCounters), like the per-class
// lifecycle counters (classCounter): an engine is made per course open,
// and a registry lookup builds a label string and takes the registry
// lock.
type counters struct {
	links, actions, fetches, fetchErrs, cacheHits *obs.Counter
	aToB, bToC, cGone                             *obs.Counter
}

var engineCounters = sync.OnceValue(func() *counters {
	return &counters{
		links:     obs.GetCounter("mheg_links_fired_total"),
		actions:   obs.GetCounter("mheg_actions_applied_total"),
		fetches:   obs.GetCounter("mheg_content_fetches_total"),
		fetchErrs: obs.GetCounter("mheg_content_fetch_errors_total"),
		cacheHits: obs.GetCounter("mheg_content_cache_hits_total"),
		aToB:      obs.GetCounter("mheg_form_transitions_total", "transition", "a_to_b"),
		bToC:      obs.GetCounter("mheg_form_transitions_total", "transition", "b_to_c"),
		cGone:     obs.GetCounter("mheg_form_transitions_total", "transition", "c_destroyed"),
	}
})

// classCounter is one per-class lifecycle counter family. Each class's
// series is looked up in the registry on first use and kept: NewRT, Run
// and Delete fire for every run-time object (24 per course open), and a
// registry lookup builds a label string and takes the registry lock.
type classCounter struct {
	name    string
	byClass [mheg.ClassDescriptor + 1]atomic.Pointer[obs.Counter]
}

var (
	rtCreated   = &classCounter{name: "mheg_rt_created_total"}
	rtRun       = &classCounter{name: "mheg_rt_run_total"}
	rtDestroyed = &classCounter{name: "mheg_rt_destroyed_total"}
)

func (cc *classCounter) inc(class mheg.ClassID) {
	if class < 0 || int(class) >= len(cc.byClass) {
		obs.GetCounter(cc.name, "class", class.String()).Inc()
		return
	}
	c := cc.byClass[class].Load()
	if c == nil {
		c = obs.GetCounter(cc.name, "class", class.String())
		cc.byClass[class].Store(c)
	}
	c.Inc()
}

type linkKey struct {
	source mheg.ID
	attr   mheg.StatusAttr
}

// Option configures an Engine.
type Option func(*Engine)

// WithRenderer installs a presentation-event sink; several may be
// installed (the navigator's screen and a script host, for instance).
func WithRenderer(r Renderer) Option { return func(e *Engine) { e.renderers = append(e.renderers, r) } }

// WithResolver installs the content database access.
func WithResolver(r ContentResolver) Option { return func(e *Engine) { e.resolver = r } }

// WithEncoding overrides the interchange encoding (default binary).
func WithEncoding(enc codec.Encoding) Option { return func(e *Engine) { e.enc = enc } }

// New creates an engine on the given clock.
func New(clock *sim.Clock, opts ...Option) *Engine {
	e := &Engine{
		clock:        clock,
		enc:          codec.ASN1(),
		activeLinks:  make(map[linkKey][]*mheg.Link),
		contentCache: make(map[string][]byte),
		metrics:      engineCounters(),
	}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Retire stops an engine whose host has replaced it on a shared clock:
// every pending finish is cancelled and every delayed action item
// becomes a no-op, so nothing the retired presentation scheduled reaches
// a renderer afterwards.
func (e *Engine) Retire() {
	e.retired = true
	for _, rt := range e.rts {
		if rt != nil && rt.finishEv != nil {
			e.clock.Cancel(rt.finishEv)
			rt.finishEv = nil
		}
	}
}

// Clock returns the engine's clock.
func (e *Engine) Clock() *sim.Clock { return e.clock }

// ---- form (a) → form (b) ----

// Ingest decodes an interchanged byte stream into a form (b) model
// object (Fig 2.4 "CODER"→decode). Containers are unpacked: every
// nested object becomes an individually addressable model.
func (e *Engine) Ingest(data []byte) (mheg.ID, error) {
	obj, err := e.Decode(data)
	if err != nil {
		return mheg.ID{}, err
	}
	return obj.Base().ID, e.Load(obj)
}

// Decode turns an interchanged byte stream into a validated object
// without registering it: the first half of Ingest, for a caller that
// keeps the decoded object and Loads it into several engines.
func (e *Engine) Decode(data []byte) (mheg.Object, error) {
	obj, err := e.enc.Decode(data)
	if err != nil {
		return nil, err
	}
	e.Stats.ObjectsDecoded++
	e.metrics.aToB.Inc()
	if err := obj.Validate(); err != nil {
		return nil, fmt.Errorf("engine: rejecting model: %w", err)
	}
	return obj, nil
}

// AddModel validates an already-decoded object (a container validates
// everything it holds) and registers it as a form (b) model.
func (e *Engine) AddModel(obj mheg.Object) error {
	if err := obj.Validate(); err != nil {
		return fmt.Errorf("engine: rejecting model: %w", err)
	}
	return e.Load(obj)
}

// Load registers an object that has already passed Validate, unpacking
// containers. The engine only reads its models, so one decoded object
// may be loaded into any number of engines at once.
func (e *Engine) Load(obj mheg.Object) error {
	id := obj.Base().ID
	if _, dup := e.models[id]; dup {
		return fmt.Errorf("engine: model %v already present", id)
	}
	e.ownModels()
	e.models[id] = obj
	if c, ok := obj.(*mheg.Container); ok {
		for _, item := range c.Items {
			if err := e.Load(item); err != nil {
				return err
			}
		}
	}
	return nil
}

// Index returns a copy of the engine's register of form (b) objects —
// what its Loads flattened, by id — for LoadIndex into other engines.
func (e *Engine) Index() map[mheg.ID]mheg.Object { return maps.Clone(e.models) }

// LoadIndex makes an Index this engine's register of form (b) objects
// without copying it: the engine shares the map with every other engine
// that adopted it, and only reads it until its first Load or Destroy
// clones it (ownModels). Only an engine that holds no models takes one;
// adding to a register is Load's job, with its duplicate check.
func (e *Engine) LoadIndex(index map[mheg.ID]mheg.Object) error {
	if len(e.models) != 0 || e.live != 0 {
		return fmt.Errorf("engine: LoadIndex into an engine holding %d models", len(e.models))
	}
	if len(index) == 0 {
		return nil
	}
	e.models, e.adopted = index, true
	return nil
}

// ownModels makes the register of form (b) objects the engine's own
// before a write: Load and Destroy, the only two writers, call it, so an
// adopted Index is never written.
func (e *Engine) ownModels() {
	switch {
	case e.adopted:
		e.models, e.adopted = maps.Clone(e.models), false
	case e.models == nil:
		e.models = make(map[mheg.ID]mheg.Object)
	}
}

// Model looks up a form (b) object.
func (e *Engine) Model(id mheg.ID) (mheg.Object, bool) {
	o, ok := e.models[id]
	return o, ok
}

// Models reports how many form (b) objects the engine holds.
func (e *Engine) Models() int { return len(e.models) }

// Destroy removes a model object; its run-time objects are deleted
// first (they cannot outlive their model).
func (e *Engine) Destroy(id mheg.ID) {
	for _, rt := range append([]RTID(nil), e.byModel[id]...) {
		e.Delete(rt)
	}
	if _, ok := e.models[id]; ok {
		e.ownModels()
		delete(e.models, id)
	}
}

// ---- form (b) → form (c) ----

// ErrUnknownModel is returned when instantiating an absent model.
var ErrUnknownModel = errors.New("engine: unknown model object")

// NewRT creates a run-time object from a model ('new' action), placing
// it on the named channel. Composites recursively instantiate their
// components into sockets and arm their links.
func (e *Engine) NewRT(model mheg.ID, channel string) (RTID, error) {
	obj, ok := e.models[model]
	if !ok {
		return 0, fmt.Errorf("%w: %v", ErrUnknownModel, model)
	}
	rt := e.register(model, obj)
	rt.Channel = channel
	if c, ok := obj.(*mheg.Content); ok {
		rt.Size = c.OrigSize
		if c.OrigVolume != 0 {
			rt.Volume = c.OrigVolume
		}
		// The layout structure may assign the object its own channel
		// (§4.3.3); otherwise it inherits the enclosing composite's.
		if c.Channel != "" {
			rt.Channel = c.Channel
		}
	}
	e.Stats.RTCreated++
	e.metrics.bToC.Inc()
	rtCreated.inc(obj.Base().Class)

	if comp, ok := obj.(*mheg.Composite); ok {
		rt.Sockets = make([]Socket, 0, len(comp.Components))
		for _, cid := range comp.Components {
			child, err := e.NewRT(cid, channel)
			if err != nil {
				// Leave an empty socket for missing components; the
				// descriptor negotiation normally prevents this.
				rt.Sockets = append(rt.Sockets, Socket{Kind: EmptySocket})
				continue
			}
			kind := PresentableSocket
			if _, isComposite := e.rts[child].obj.(*mheg.Composite); isComposite {
				kind = StructuralSocket
			}
			rt.Sockets = append(rt.Sockets, Socket{Kind: kind, RT: child})
		}
		for _, lid := range comp.Links {
			if l, ok := e.models[lid].(*mheg.Link); ok {
				e.armLink(l)
			}
		}
	}
	e.emit(Event{Kind: EvCreated, RT: rt.ID, Model: model, Channel: rt.Channel})
	return rt.ID, nil
}

// slabMin is the least number of run-time objects the first slab holds.
const slabMin = 8

// presenters counts the models that become run-time objects in a course
// open — every class but the links, actions, descriptors and containers
// the engine only reads — to size the register's first slabs.
func (e *Engine) presenters() int {
	n := 0
	for _, obj := range e.models {
		switch obj.(type) {
		case *mheg.Link, *mheg.Action, *mheg.Descriptor, *mheg.Container:
		default:
			n++
		}
	}
	return max(n, slabMin)
}

// register enters a new run-time object of model under the next RTID.
// Objects and each model's first byModel list are carved from slabs: the
// first holds one entry per presenting model, which is what a course
// open instantiates, and each later one as many entries as the register
// already has. A carved list is capped at one entry, so a second
// instance of its model appends into a list of its own.
func (e *Engine) register(model mheg.ID, obj mheg.Object) *RTObject {
	if e.rts == nil {
		n := e.presenters()
		e.slab, e.idArena = make([]RTObject, n), make([]RTID, n)
		e.rts = make([]*RTObject, 1, n+1) // RTID 0 is never handed out
		e.byModel = make(map[mheg.ID][]RTID, n)
	}
	if len(e.slab) == 0 {
		e.slab = make([]RTObject, len(e.rts))
	}
	rt := &e.slab[0]
	e.slab = e.slab[1:]
	rt.ID, rt.Model, rt.obj, rt.Visible, rt.Volume, rt.Speed = RTID(len(e.rts)), model, obj, true, 70, 100
	e.rts = append(e.rts, rt)
	e.live++

	ids := e.byModel[model]
	if cap(ids) == 0 {
		if len(e.idArena) == 0 {
			e.idArena = make([]RTID, len(e.rts))
		}
		ids, e.idArena = e.idArena[:0:1], e.idArena[1:]
	}
	e.byModel[model] = append(ids, rt.ID)
	return rt
}

// lookup is the live run-time object id names, or nil.
func (e *Engine) lookup(id RTID) *RTObject {
	if id <= 0 || int(id) >= len(e.rts) {
		return nil
	}
	return e.rts[id]
}

// RT looks up a live run-time object.
func (e *Engine) RT(id RTID) (*RTObject, bool) {
	rt := e.lookup(id)
	return rt, rt != nil
}

// RTs reports how many live run-time objects exist.
func (e *Engine) RTs() int { return e.live }

// RTsOf returns the live run-time instances of a model.
func (e *Engine) RTsOf(model mheg.ID) []RTID {
	return append([]RTID(nil), e.byModel[model]...)
}

// Delete removes a run-time object ('delete' action) and, for
// composites, its socketed components.
func (e *Engine) Delete(id RTID) {
	rt := e.lookup(id)
	if rt == nil {
		return
	}
	if rt.finishEv != nil {
		e.clock.Cancel(rt.finishEv)
		rt.finishEv = nil
	}
	for _, s := range rt.Sockets {
		if s.Kind != EmptySocket {
			e.Delete(s.RT)
		}
	}
	rt.deleted = true
	e.rts[id] = nil
	e.live--
	ids := e.byModel[rt.Model]
	for i, v := range ids {
		if v == id {
			e.byModel[rt.Model] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if comp, ok := rt.obj.(*mheg.Composite); ok {
		for _, lid := range comp.Links {
			if l, ok := e.models[lid].(*mheg.Link); ok {
				e.disarmLink(l)
			}
		}
	}
	e.Stats.RTDeleted++
	e.metrics.cGone.Inc()
	rtDestroyed.inc(rt.obj.Base().Class)
	e.emit(Event{Kind: EvDeleted, RT: id, Model: rt.Model, Channel: rt.Channel})
}

// ---- links ----

// armLink makes a link active: its trigger now watches status changes.
func (e *Engine) armLink(l *mheg.Link) {
	k := linkKey{source: l.Trigger.Source, attr: l.Trigger.Attr}
	e.activeLinks[k] = append(e.activeLinks[k], l)
}

func (e *Engine) disarmLink(l *mheg.Link) {
	k := linkKey{source: l.Trigger.Source, attr: l.Trigger.Attr}
	links := e.activeLinks[k]
	for i, v := range links {
		if v == l {
			e.activeLinks[k] = append(links[:i], links[i+1:]...)
			return
		}
	}
}

// ArmLink activates a standalone link object (outside any composite).
func (e *Engine) ArmLink(id mheg.ID) error {
	l, ok := e.models[id].(*mheg.Link)
	if !ok {
		return fmt.Errorf("engine: %v is not a link model", id)
	}
	e.armLink(l)
	return nil
}

// statusChanged is called whenever an observable attribute of a
// run-time object changes; it evaluates armed links (§2.2.2.3: "The
// trigger is activated when the MHEG engine detects a change in the
// value of an object status").
func (e *Engine) statusChanged(rt *RTObject, attr mheg.StatusAttr, newValue mheg.Value) {
	k := linkKey{source: rt.Model, attr: attr}
	// Copy: firing a link may arm or disarm links on the same key.
	links := append([]*mheg.Link(nil), e.activeLinks[k]...)
	for _, l := range links {
		if !l.Trigger.Op.Compare(newValue, l.Trigger.Value) {
			continue
		}
		if !e.additionalHold(l) {
			continue
		}
		e.Stats.LinksFired++
		e.metrics.links.Inc()
		e.applyEffect(l)
	}
}

// additionalHold evaluates a link's additional conditions against the
// current engine state.
func (e *Engine) additionalHold(l *mheg.Link) bool {
	for _, c := range l.Additional {
		cur, ok := e.currentValue(c.Source, c.Attr)
		if !ok || !c.Op.Compare(cur, c.Value) {
			return false
		}
	}
	return true
}

// currentValue reads the present value of an attribute from the first
// live run-time instance of the model.
func (e *Engine) currentValue(model mheg.ID, attr mheg.StatusAttr) (mheg.Value, bool) {
	ids := e.byModel[model]
	if len(ids) == 0 {
		return mheg.Value{}, false
	}
	rt := e.rts[ids[0]]
	switch attr {
	case mheg.AttrRunning:
		return mheg.IntValue(rt.Running), true
	case mheg.AttrSelection:
		return mheg.IntValue(rt.Selections), true
	case mheg.AttrSelectionState:
		return rt.Selection, true
	case mheg.AttrVisibility:
		return mheg.BoolValue(rt.Visible), true
	case mheg.AttrPosition:
		return mheg.IntValue(int64(rt.Position.X)), true
	case mheg.AttrVolume:
		return mheg.IntValue(int64(rt.Volume)), true
	case mheg.AttrData:
		return rt.Data, true
	default:
		return mheg.Value{}, false
	}
}

func (e *Engine) applyEffect(l *mheg.Link) {
	items := l.Inline
	if !l.Effect.Zero() {
		if a, ok := e.models[l.Effect].(*mheg.Action); ok {
			items = a.Items
		}
	}
	e.applyItems(items)
}

// ApplyItems applies elementary actions immediately, as if an
// anonymous action object fired — used by hosts layered on the engine
// (the script runtime).
func (e *Engine) ApplyItems(items []mheg.ElementaryAction) { e.applyItems(items) }

// ApplyAction applies a model action object immediately.
func (e *Engine) ApplyAction(id mheg.ID) error {
	a, ok := e.models[id].(*mheg.Action)
	if !ok {
		return fmt.Errorf("engine: %v is not an action model", id)
	}
	e.applyItems(a.Items)
	return nil
}

func (e *Engine) applyItems(items []mheg.ElementaryAction) {
	for _, item := range items {
		item := item
		if item.Delay > 0 {
			e.clock.After(item.Delay, func(sim.Time) {
				if !e.retired {
					e.applyOne(item)
				}
			})
		} else {
			e.applyOne(item)
		}
	}
}

func (e *Engine) applyOne(item mheg.ElementaryAction) {
	e.Stats.ActionsApplied++
	e.metrics.actions.Inc()
	for _, target := range item.Targets {
		e.applyToTarget(item, target)
	}
}

func (e *Engine) applyToTarget(item mheg.ElementaryAction, target mheg.ID) {
	switch item.Op {
	case mheg.OpPrepare:
		// Models are ready once ingested; prefetch referenced content.
		if c, ok := e.models[target].(*mheg.Content); ok && c.Referenced() {
			e.fetchContent(c)
		}
		return
	case mheg.OpDestroy:
		e.Destroy(target)
		return
	case mheg.OpNew:
		channel := ""
		if len(item.Args) > 0 && item.Args[0].Kind == mheg.ValueString {
			channel = item.Args[0].Str
		}
		e.NewRT(target, channel) //nolint:errcheck // missing models leave empty sockets
		return
	}
	// Remaining ops address the run-time instances of the target model.
	for _, id := range append([]RTID(nil), e.byModel[target]...) {
		if rt := e.lookup(id); rt != nil {
			e.applyToRT(item, rt)
		}
	}
}

func intArg(args []mheg.Value, i int, def int64) int64 {
	if i < len(args) && args[i].Kind == mheg.ValueInt {
		return args[i].Int
	}
	return def
}

func (e *Engine) applyToRT(item mheg.ElementaryAction, rt *RTObject) {
	switch item.Op {
	case mheg.OpDelete:
		e.Delete(rt.ID)
	case mheg.OpRun:
		e.Run(rt.ID)
	case mheg.OpStop:
		e.Stop(rt.ID)
	case mheg.OpPause:
		e.Pause(rt.ID)
	case mheg.OpResume:
		e.Resume(rt.ID)
	case mheg.OpSetPosition:
		rt.Position = mheg.Point{X: int(intArg(item.Args, 0, 0)), Y: int(intArg(item.Args, 1, 0))}
		e.emit(Event{Kind: EvMoved, RT: rt.ID, Model: rt.Model, Channel: rt.Channel,
			Detail: fmt.Sprintf("(%d,%d)", rt.Position.X, rt.Position.Y)})
		e.statusChanged(rt, mheg.AttrPosition, mheg.IntValue(int64(rt.Position.X)))
	case mheg.OpSetSize:
		rt.Size = mheg.Size{W: int(intArg(item.Args, 0, 0)), H: int(intArg(item.Args, 1, 0))}
		e.emit(Event{Kind: EvResized, RT: rt.ID, Model: rt.Model, Channel: rt.Channel,
			Detail: fmt.Sprintf("%dx%d", rt.Size.W, rt.Size.H)})
	case mheg.OpSetSpeed:
		rt.Speed = int(intArg(item.Args, 0, 100))
		e.emit(Event{Kind: EvSpeed, RT: rt.ID, Model: rt.Model, Channel: rt.Channel,
			Detail: fmt.Sprintf("%d%%", rt.Speed)})
	case mheg.OpSetVolume:
		rt.Volume = int(intArg(item.Args, 0, 70))
		e.emit(Event{Kind: EvVolume, RT: rt.ID, Model: rt.Model, Channel: rt.Channel})
		e.statusChanged(rt, mheg.AttrVolume, mheg.IntValue(int64(rt.Volume)))
	case mheg.OpSetVisible:
		v := len(item.Args) > 0 && item.Args[0].Kind == mheg.ValueBool && item.Args[0].Bool
		rt.Visible = v
		e.emit(Event{Kind: EvVisibility, RT: rt.ID, Model: rt.Model, Channel: rt.Channel,
			Detail: fmt.Sprintf("%t", v)})
		e.statusChanged(rt, mheg.AttrVisibility, mheg.BoolValue(v))
	case mheg.OpSetHighlight:
		rt.Highlight = len(item.Args) > 0 && item.Args[0].Kind == mheg.ValueBool && item.Args[0].Bool
		e.emit(Event{Kind: EvHighlight, RT: rt.ID, Model: rt.Model, Channel: rt.Channel})
	case mheg.OpSetData:
		if len(item.Args) > 0 {
			rt.Data = item.Args[0]
			e.emit(Event{Kind: EvData, RT: rt.ID, Model: rt.Model, Channel: rt.Channel, Detail: rt.Data.String()})
			e.statusChanged(rt, mheg.AttrData, rt.Data)
		}
	case mheg.OpActivate:
		if s, ok := rt.obj.(*mheg.Script); ok {
			e.emit(Event{Kind: EvScript, RT: rt.ID, Model: rt.Model, Channel: rt.Channel,
				Detail: s.Language})
		}
		rt.Running = mheg.StatusRunning
		e.statusChanged(rt, mheg.AttrRunning, mheg.IntValue(rt.Running))
	case mheg.OpDeactivate:
		rt.Running = mheg.StatusNotRunning
		e.statusChanged(rt, mheg.AttrRunning, mheg.IntValue(rt.Running))
	case mheg.OpGetValue:
		attr := mheg.StatusAttr(intArg(item.Args, 0, 0))
		if v, ok := e.currentValue(rt.Model, attr); ok && !item.TargetAux.Zero() {
			set := mheg.ElementaryAction{Op: mheg.OpSetData, Targets: []mheg.ID{item.TargetAux}, Args: []mheg.Value{v}}
			e.applyOne(set)
		}
	}
}

// ---- presentation ----

// Run starts presentation of a run-time object ('run' action). For
// time-based content the finish instant is scheduled from the model's
// original duration scaled by the run-time speed. Composites without a
// start-up action play their components serially — "simple serial
// playback when there is no users' interference" (§4.3.3).
func (e *Engine) Run(id RTID) {
	rt := e.lookup(id)
	if rt == nil || rt.Running == mheg.StatusRunning {
		return
	}
	rt.Running = mheg.StatusRunning
	rt.startedAt = e.clock.Now()
	e.emit(Event{Kind: EvRan, RT: id, Model: rt.Model, Channel: rt.Channel})
	rtRun.inc(rt.obj.Base().Class)

	switch obj := rt.obj.(type) {
	case *mheg.Content:
		if obj.Referenced() {
			e.fetchContent(obj)
		}
		if obj.OrigDuration > 0 {
			e.scheduleFinish(rt, e.scaledDuration(obj.OrigDuration, rt.Speed))
		}
	case *mheg.MultiplexedContent:
		if obj.Referenced() {
			e.fetchContent(&obj.Content)
		}
		if obj.OrigDuration > 0 {
			e.scheduleFinish(rt, e.scaledDuration(obj.OrigDuration, rt.Speed))
		}
	case *mheg.Composite:
		if !obj.StartUp.Zero() {
			if a, ok := e.models[obj.StartUp].(*mheg.Action); ok {
				e.applyItems(a.Items)
			}
		} else {
			rt.serialPos = 0
			e.serialStep(rt)
		}
	}
	e.statusChanged(rt, mheg.AttrRunning, mheg.IntValue(rt.Running))
}

func (e *Engine) scaledDuration(d time.Duration, speed int) time.Duration {
	if speed <= 0 || speed == 100 {
		return d
	}
	return time.Duration(float64(d) * 100 / float64(speed))
}

func (e *Engine) scheduleFinish(rt *RTObject, after time.Duration) {
	rt.finishEv = e.clock.After(after, func(sim.Time) {
		rt.finishEv = nil
		e.finish(rt)
	})
}

func (e *Engine) finish(rt *RTObject) {
	if rt.deleted || rt.Running != mheg.StatusRunning {
		return
	}
	rt.Running = mheg.StatusFinished
	e.emit(Event{Kind: EvFinished, RT: rt.ID, Model: rt.Model, Channel: rt.Channel})
	e.statusChanged(rt, mheg.AttrRunning, mheg.IntValue(rt.Running))
	watchers := rt.onFinish
	rt.onFinish = nil
	for _, w := range watchers {
		w()
	}
}

// serialStep runs the next socketed component of a composite; when that
// component finishes, the next starts. Presentable components without a
// duration (images, text) count as instantaneous for sequencing and
// remain visible.
func (e *Engine) serialStep(rt *RTObject) {
	for rt.serialPos < len(rt.Sockets) {
		s := rt.Sockets[rt.serialPos]
		rt.serialPos++
		if s.Kind == EmptySocket {
			continue
		}
		child := e.lookup(s.RT)
		if child == nil {
			continue
		}
		e.Run(child.ID)
		if e.isTimed(child) {
			// Continue when the child finishes.
			e.watchFinish(rt, child)
			return
		}
	}
	// All components done: the composite itself finishes.
	e.finish(rt)
}

func (e *Engine) isTimed(rt *RTObject) bool {
	switch obj := rt.obj.(type) {
	case *mheg.Content:
		return obj.OrigDuration > 0
	case *mheg.MultiplexedContent:
		return obj.OrigDuration > 0
	case *mheg.Composite:
		return true // composites finish when their sequence does
	}
	return false
}

// watchFinish arms an internal watcher that resumes serial playback of
// parent when child finishes or stops.
func (e *Engine) watchFinish(parent, child *RTObject) {
	child.onFinish = append(child.onFinish, func() {
		if parent.deleted || parent.Running != mheg.StatusRunning {
			return
		}
		e.serialStep(parent)
	})
}

// Stop halts presentation ('stop' action).
func (e *Engine) Stop(id RTID) {
	rt := e.lookup(id)
	if rt == nil || rt.Running == mheg.StatusNotRunning {
		return
	}
	if rt.finishEv != nil {
		e.clock.Cancel(rt.finishEv)
		rt.finishEv = nil
	}
	for _, s := range rt.Sockets {
		if s.Kind != EmptySocket {
			e.Stop(s.RT)
		}
	}
	rt.Running = mheg.StatusNotRunning
	e.emit(Event{Kind: EvStopped, RT: id, Model: rt.Model, Channel: rt.Channel})
	e.statusChanged(rt, mheg.AttrRunning, mheg.IntValue(rt.Running))
}

// Pause suspends a running time-based presentation, remembering the
// remaining play time.
func (e *Engine) Pause(id RTID) {
	rt := e.lookup(id)
	if rt == nil || rt.Running != mheg.StatusRunning || rt.finishEv == nil {
		return
	}
	rt.remaining = rt.finishEv.When().Sub(e.clock.Now())
	e.clock.Cancel(rt.finishEv)
	rt.finishEv = nil
	e.emit(Event{Kind: EvPaused, RT: id, Model: rt.Model, Channel: rt.Channel})
}

// Resume continues a paused presentation.
func (e *Engine) Resume(id RTID) {
	rt := e.lookup(id)
	if rt == nil || rt.Running != mheg.StatusRunning || rt.remaining <= 0 {
		return
	}
	e.scheduleFinish(rt, rt.remaining)
	rt.remaining = 0
	e.emit(Event{Kind: EvResumed, RT: id, Model: rt.Model, Channel: rt.Channel})
}

// ---- user interaction ----

// Select registers a user selection (click) on a run-time object,
// incrementing its selection count and firing selection links.
func (e *Engine) Select(id RTID) {
	rt := e.lookup(id)
	if rt == nil {
		return
	}
	rt.Selections++
	e.statusChanged(rt, mheg.AttrSelection, mheg.IntValue(rt.Selections))
}

// SetSelection sets the selection state (menu choice, entry-field text)
// and fires selection-state links.
func (e *Engine) SetSelection(id RTID, v mheg.Value) {
	rt := e.lookup(id)
	if rt == nil {
		return
	}
	rt.Selection = v
	e.statusChanged(rt, mheg.AttrSelectionState, v)
}

// Input delivers a free-form user input event attributed to an object.
func (e *Engine) Input(id RTID, v mheg.Value) {
	rt := e.lookup(id)
	if rt == nil {
		return
	}
	e.statusChanged(rt, mheg.AttrUserInput, v)
}

// ---- content access ----

// fetchContent pulls referenced data through the resolver, caching per
// reference so reuse of a model object in several run-time instances
// costs one transfer (§2.2.2.2's reuse motivation).
func (e *Engine) fetchContent(c *mheg.Content) {
	if e.resolver == nil {
		return
	}
	if !e.DisableCache {
		if _, ok := e.contentCache[c.ContentRef]; ok {
			e.Stats.CacheHits++
			e.metrics.cacheHits.Inc()
			return
		}
	}
	data, err := e.resolver.FetchContent(c.ContentRef)
	if err != nil {
		e.metrics.fetchErrs.Inc()
		return
	}
	e.Stats.ContentFetches++
	e.metrics.fetches.Inc()
	e.Stats.BytesFetched += int64(len(data))
	if !e.DisableCache {
		e.contentCache[c.ContentRef] = data
	}
}

// Subscribe adds a presentation-event sink at run time.
func (e *Engine) Subscribe(r Renderer) { e.renderers = append(e.renderers, r) }

func (e *Engine) emit(ev Event) {
	ev.At = e.clock.Now()
	for _, r := range e.renderers {
		r.RenderEvent(ev)
	}
}
