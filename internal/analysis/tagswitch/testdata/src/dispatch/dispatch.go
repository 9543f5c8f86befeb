// Package dispatch exercises the tagswitch analyzer: switches on
// wire.Tag must handle every exported tag constant or carry a default
// clause that returns. It imports the repository's own wire package:
// the exhaustive case below names every tag the protocol has today, so
// adding a tag fails this fixture until someone decides what dispatch
// does with the new frame.
package dispatch

import (
	"errors"

	"mpq/internal/wire"
)

var errUnknown = errors.New("unknown tag")

// missingNoDefault omits TagPlan and has no default: flagged.
func missingNoDefault(t wire.Tag) error {
	switch t { // want "switch on wire.Tag does not handle TagPlan and has no default clause"
	case wire.TagQuery:
		return nil
	case wire.TagJobRequest, wire.TagJobResponse, wire.TagWorkerError, wire.TagCancelRequest:
		return nil
	}
	return nil
}

// missingCancel is the switch the analyzer was written for: a dispatch
// that predates the CancelRequest frame and was never revisited.
// Flagged.
func missingCancel(t wire.Tag) error {
	switch t { // want "switch on wire.Tag does not handle TagCancelRequest and has no default clause"
	case wire.TagQuery, wire.TagPlan:
		return nil
	case wire.TagJobRequest, wire.TagJobResponse, wire.TagWorkerError:
		return nil
	}
	return nil
}

// fallthroughDefault has a default, but it does not return: an unknown
// tag silently falls through to the success path. Flagged at the
// default clause.
func fallthroughDefault(t wire.Tag) error {
	handled := 0
	switch t {
	case wire.TagQuery:
		handled++
	default: // want "default clause of a switch on wire.Tag falls through"
		handled--
	}
	_ = handled
	return nil
}

// exhaustive covers every exported tag: compliant without a default.
func exhaustive(t wire.Tag) error {
	switch t {
	case wire.TagQuery:
		return nil
	case wire.TagPlan:
		return nil
	case wire.TagJobRequest:
		return nil
	case wire.TagJobResponse:
		return nil
	case wire.TagWorkerError:
		return nil
	case wire.TagCancelRequest:
		return nil
	}
	return nil
}

// terminatingDefault leaves tags unhandled but its default returns an
// error: compliant — the unknown frame is an explicit error path.
func terminatingDefault(t wire.Tag) error {
	switch t {
	case wire.TagJobRequest:
		return nil
	default:
		return errUnknown
	}
}

// panickingDefault terminates by panic: compliant.
func panickingDefault(t wire.Tag) {
	switch t {
	case wire.TagQuery, wire.TagPlan:
	default:
		panic("unknown tag")
	}
}

// allowed reproduces the missing-tag shape but carries a deliberate,
// reasoned exception: suppressed.
func allowed(t wire.Tag) error {
	switch t { //lint:allow tagswitch fixture: demonstrates a reasoned exception to the dispatch invariant
	case wire.TagQuery:
		return nil
	}
	return nil
}

// untypedSwitch switches on a plain uint8, which is not a wire.Tag:
// out of scope.
func untypedSwitch(b uint8) {
	switch b {
	case 1:
	}
}
