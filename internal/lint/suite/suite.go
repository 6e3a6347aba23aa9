// Package suite registers the project analyzers mitslint runs.
package suite

import (
	"mits/internal/lint"
	"mits/internal/lint/atomicmix"
	"mits/internal/lint/boundscheck"
	"mits/internal/lint/chanwait"
	"mits/internal/lint/closecheck"
	"mits/internal/lint/deadlinecheck"
	"mits/internal/lint/errdrop"
	"mits/internal/lint/lifecycle"
	"mits/internal/lint/lockcheck"
	"mits/internal/lint/lockorder"
	"mits/internal/lint/logcheck"
	"mits/internal/lint/poolcheck"
	"mits/internal/lint/sleepless"
	"mits/internal/lint/spancheck"
)

// All returns the analyzers of the MITS correctness suite.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{
		lockcheck.Analyzer,
		errdrop.Analyzer,
		lifecycle.Analyzer,
		sleepless.Analyzer,
		logcheck.Analyzer,
		closecheck.Analyzer,
		boundscheck.Analyzer,
		chanwait.Analyzer,
		atomicmix.Analyzer,
		poolcheck.Analyzer,
		deadlinecheck.Analyzer,
		spancheck.Analyzer,
		lockorder.Analyzer,
	}
}
