package script

import (
	"fmt"
	"time"

	"mits/internal/mheg"
	"mits/internal/mheg/engine"
	"mits/internal/sim"
)

// engineHost adapts an MHEG engine as a script Host: aliases bind to
// model object ids, verbs map to elementary actions, and status waits
// subscribe to the engine's render events. This is the bridge that lets
// a script object "contain complex synchronization taking into account
// previous user replies" (Fig 2.5).
type engineHost struct {
	e    *engine.Engine
	bind map[string]mheg.ID
	// sayFn receives `say` output; nil discards it.
	sayFn func(string)

	watchers map[watchKey][]func()
}

type watchKey struct {
	model  mheg.ID
	status string
}

// newEngineHost wires a host to an engine with the given alias→object
// bindings and subscribes to status events.
func newEngineHost(e *engine.Engine, bind map[string]mheg.ID) *engineHost {
	h := &engineHost{e: e, bind: bind, watchers: make(map[watchKey][]func())}
	e.Subscribe(engine.RendererFunc(h.onEvent))
	return h
}

func (h *engineHost) onEvent(ev engine.Event) {
	var status string
	switch ev.Kind {
	case engine.EvRan, engine.EvResumed:
		status = "running"
	case engine.EvFinished:
		status = "finished"
	case engine.EvStopped:
		status = "stopped"
	default:
		return
	}
	k := watchKey{model: ev.Model, status: status}
	fns := h.watchers[k]
	if len(fns) == 0 {
		return
	}
	delete(h.watchers, k)
	for _, f := range fns {
		f()
	}
}

func (h *engineHost) resolve(alias string) (mheg.ID, error) {
	id, ok := h.bind[alias]
	if !ok {
		return mheg.ID{}, fmt.Errorf("unbound object alias %q", alias)
	}
	return id, nil
}

// After implements Host on the engine's clock.
func (h *engineHost) After(d time.Duration, f func()) {
	h.e.Clock().After(d, func(sim.Time) { f() })
}

// Apply implements Host.
func (h *engineHost) Apply(verb, alias, channel string) error {
	id, err := h.resolve(alias)
	if err != nil {
		return err
	}
	ensureRT := func() error {
		if len(h.e.RTsOf(id)) == 0 {
			if _, err := h.e.NewRT(id, channel); err != nil {
				return err
			}
		}
		return nil
	}
	switch verb {
	case "new":
		_, err := h.e.NewRT(id, channel)
		return err
	case "run":
		if err := ensureRT(); err != nil {
			return err
		}
		for _, rt := range h.e.RTsOf(id) {
			h.e.Run(rt)
		}
	case "stopobj":
		for _, rt := range h.e.RTsOf(id) {
			h.e.Stop(rt)
		}
	case "pause":
		for _, rt := range h.e.RTsOf(id) {
			h.e.Pause(rt)
		}
	case "resume":
		for _, rt := range h.e.RTsOf(id) {
			h.e.Resume(rt)
		}
	case "delete":
		for _, rt := range h.e.RTsOf(id) {
			h.e.Delete(rt)
		}
	case "show", "hide":
		visible := verb == "show"
		if err := ensureRT(); err != nil {
			return err
		}
		h.applyVisible(id, visible)
	default:
		return fmt.Errorf("unknown verb %q", verb)
	}
	return nil
}

func (h *engineHost) applyVisible(id mheg.ID, visible bool) {
	h.e.ApplyItems([]mheg.ElementaryAction{
		mheg.Act(mheg.OpSetVisible, id, mheg.BoolValue(visible)),
	})
}

// Status implements Host.
func (h *engineHost) Status(alias string) (string, error) {
	id, err := h.resolve(alias)
	if err != nil {
		return "", err
	}
	rts := h.e.RTsOf(id)
	if len(rts) == 0 {
		return "stopped", nil
	}
	rt, ok := h.e.RT(rts[0])
	if !ok {
		return "stopped", nil
	}
	switch rt.Running {
	case mheg.StatusRunning:
		return "running", nil
	case mheg.StatusFinished:
		return "finished", nil
	default:
		return "stopped", nil
	}
}

// Reply implements Host: the object's selection state as text.
func (h *engineHost) Reply(alias string) (string, error) {
	id, err := h.resolve(alias)
	if err != nil {
		return "", err
	}
	rts := h.e.RTsOf(id)
	if len(rts) == 0 {
		return "", nil
	}
	rt, ok := h.e.RT(rts[0])
	if !ok {
		return "", nil
	}
	if rt.Selection.Kind == mheg.ValueNone {
		return "", nil
	}
	return rt.Selection.String(), nil
}

// WatchStatus implements Host.
func (h *engineHost) WatchStatus(alias, status string, f func()) error {
	id, err := h.resolve(alias)
	if err != nil {
		return err
	}
	k := watchKey{model: id, status: status}
	h.watchers[k] = append(h.watchers[k], f)
	return nil
}

// Say implements Host.
func (h *engineHost) Say(text string) {
	if h.sayFn != nil {
		h.sayFn(text)
	}
}

// Activate compiles and starts the MHEG script object id on the engine
// with the given alias bindings — the engine-side realization of the
// MHEG 'activate' action for this language.
func Activate(e *engine.Engine, id mheg.ID, bind map[string]mheg.ID, say func(string)) (*Instance, error) {
	obj, ok := e.Model(id)
	if !ok {
		return nil, fmt.Errorf("script: no model %v", id)
	}
	s, ok := obj.(*mheg.Script)
	if !ok {
		return nil, fmt.Errorf("script: %v is %v, not a script", id, obj.Base().Class)
	}
	if s.Language != Language {
		return nil, fmt.Errorf("script: %v holds language %q, want %q", id, s.Language, Language)
	}
	prog, err := compile(s.Source)
	if err != nil {
		return nil, err
	}
	host := newEngineHost(e, bind)
	host.sayFn = say
	return start(host, prog), nil
}
