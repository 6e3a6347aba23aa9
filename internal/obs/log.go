package obs

import (
	"io"
	"log/slog"
	"os"
	"sync/atomic"
)

// logState is the structured-logging half of a Registry. The default
// sink is a text handler on stderr at LevelWarn: libraries stay quiet
// under test, daemons raise the level to Info at start-up.
type logState struct {
	level  slog.LevelVar
	logger atomic.Pointer[slog.Logger]
}

func (r *Registry) initLog() {
	r.level.Set(slog.LevelWarn)
	r.logger.Store(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: &r.level})))
}

// SetLogLevel adjusts the minimum level of the registry's logger.
func (r *Registry) SetLogLevel(l slog.Level) { r.level.Set(l) }

// SetLogOutput replaces the log sink, keeping the dynamic level.
func (r *Registry) SetLogOutput(w io.Writer) {
	r.logger.Store(slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: &r.level})))
}

// Logger returns the registry's logger scoped to one component,
// stamped with the site name when SetSite was called. Components are
// the module names of Fig 3.4: "transport", "mediastore", "engine",
// "navigator", "mitsd" …
func (r *Registry) Logger(component string) *slog.Logger {
	l := r.logger.Load().With("component", component)
	if site := r.Site(); site != "" {
		l = l.With("site", site)
	}
	return l
}

// Logger returns a component logger on the Default registry.
func Logger(component string) *slog.Logger { return Default.Logger(component) }

// SetSite names the site on the Default registry.
func SetSite(site string) { Default.SetSite(site) }

// SetLogLevel adjusts the Default registry's log level.
func SetLogLevel(l slog.Level) { Default.SetLogLevel(l) }
