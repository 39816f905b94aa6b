package core

import "fmt"

// EvalMode selects how the incremental σ evaluator (Instance.NewSearch)
// maintains its state when a shortcut is committed with Search.Add.
type EvalMode string

const (
	// EvalModeAuto resolves to EvalIncremental.
	EvalModeAuto EvalMode = ""
	// EvalIncremental merges a committed shortcut into every endpoint
	// distance row in O(n) (two overlay row queries instead of one per
	// endpoint) and patches the gains array with a delta rescan that skips
	// pairs whose rows the merge left untouched. Placements, σ values, and
	// gains arrays are identical to EvalRebuild — the eval-differential
	// suite locks that in — so this is the default.
	EvalIncremental EvalMode = "incremental"
	// EvalRebuild recomputes every endpoint distance row and rescans the
	// full candidate grid after every mutation: the straight-line reference
	// path the incremental engine is verified against, and a useful
	// baseline for benchmarking the merge.
	EvalRebuild EvalMode = "rebuild"
)

// ParseEvalMode validates an -eval flag value; "auto", "incremental", and
// "rebuild" are accepted.
func ParseEvalMode(s string) (EvalMode, error) {
	switch s {
	case "", "auto":
		return EvalModeAuto, nil
	case string(EvalIncremental):
		return EvalIncremental, nil
	case string(EvalRebuild):
		return EvalRebuild, nil
	}
	return EvalModeAuto, fmt.Errorf("core: unknown eval mode %q (want auto, incremental, or rebuild)", s)
}

// resolveEvalMode applies the explicit-option → built-in resolution
// chain. Unknown non-auto values pass through for NewInstance to reject.
func resolveEvalMode(m EvalMode) EvalMode {
	if m == EvalModeAuto {
		return EvalIncremental
	}
	return m
}
