package estimate

import "fmt"

// Estimator is a pluggable estimation strategy: a named family of
// estimators that turn a dispersed summary (through its cross-assignment
// SampleView) into the AW-summary of one aggregate. The two built-in
// families are AWEstimator (the VLDB paper's s-set/l-set template
// estimators) and DiscardedEstimator (arXiv:0903.0625's discarded-samples
// estimators); both are stateless and safe for concurrent use.
//
// Name is the family's stable identifier — it appears in query parameters
// (GET /query?est=...), CLI flags (-estimator), and memoization cache keys,
// so two distinct estimators must never share a name.
//
// Summary panics on structurally invalid input (out-of-range assignment,
// duplicate R, invalid ℓ), mirroring the Dispersed methods it dispatches
// to; front ends validate user-supplied parameters before calling it.
type Estimator interface {
	Name() string
	Summary(d *Dispersed, f AggFunc) AWSummary
}

// awFamily dispatches each aggregate kind to the classic template
// estimator the query front ends have always used: the l-set estimators
// for the extreme-value kinds (they dominate the s-set variants,
// Lemma 5.1) and the union-threshold part sum for totals.
type awFamily struct{}

func (awFamily) Name() string { return "aw" }

func (awFamily) Summary(d *Dispersed, f AggFunc) AWSummary {
	switch f.Kind {
	case Single:
		return d.Single(f.B)
	case Max:
		return d.Max(f.R)
	case Min:
		return d.MinLSet(f.R)
	case Range:
		return d.RangeLSet(f.R)
	case LthLargest:
		return d.LthLargest(f.R, f.L)
	case Total:
		return d.TotalUnion(f.R)
	}
	panic("estimate: unknown aggregate kind " + f.Kind.String())
}

// discardedFamily dispatches to the discarded-samples estimators where the
// aggregate decomposes into per-assignment parts (Total always, Range for
// pairs) and to the identical-in-value classic estimators elsewhere: the
// l-set extreme-value estimators already condition every observation on its
// own sketch's threshold, so for max/min/ℓ-th-largest and single-assignment
// sums there is nothing left to recover (see discarded.go).
type discardedFamily struct{}

func (discardedFamily) Name() string { return "discarded" }

func (discardedFamily) Summary(d *Dispersed, f AggFunc) AWSummary {
	switch f.Kind {
	case Range:
		return d.RangeDiscarded(f.R)
	case Total:
		return d.TotalDiscarded(f.R)
	}
	return awFamily{}.Summary(d, f)
}

// AWEstimator and DiscardedEstimator are the two built-in estimator
// families, selectable end to end (library, CLIs, HTTP server).
var (
	AWEstimator        Estimator = awFamily{}
	DiscardedEstimator Estimator = discardedFamily{}
)

// EstimatorNames lists the recognized estimator names for usage messages.
const EstimatorNames = "aw, discarded"

// UnknownEstimatorError reports an estimator name ParseEstimator does not
// recognize; front ends dispatch on it with errors.As to map the failure to
// a usage error (HTTP 400, CLI flag error) rather than an internal one.
type UnknownEstimatorError struct {
	Name string
}

func (e *UnknownEstimatorError) Error() string {
	return fmt.Sprintf("unknown estimator %q (want one of %s)", e.Name, EstimatorNames)
}

// ParseEstimator resolves an estimator name from a query parameter or CLI
// flag. The empty string selects the default AW family, so front ends can
// pass an absent parameter straight through. Unknown names return an
// *UnknownEstimatorError.
func ParseEstimator(name string) (Estimator, error) {
	switch name {
	case "", "aw":
		return AWEstimator, nil
	case "discarded":
		return DiscardedEstimator, nil
	}
	return nil, &UnknownEstimatorError{Name: name}
}
