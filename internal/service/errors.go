package service

import (
	"errors"
	"net/http"

	"etsn/internal/core"
	"etsn/internal/faults"
	"etsn/internal/qcc"
	"etsn/internal/sched"
	"etsn/internal/sim"
)

// Class buckets every pipeline failure into the categories callers can act
// on. It is the single mapping shared by the etsn-sched and etsn-sim CLIs
// (exit codes) and the scheduling daemon (HTTP statuses), so the front ends
// can never disagree about what a given error means.
type Class int

const (
	// ClassOK is the nil error.
	ClassOK Class = iota
	// ClassInternal is an unexpected failure (I/O, bugs): exit 1, HTTP 500.
	ClassInternal
	// ClassInvalid marks unusable input — malformed or semantically invalid
	// configurations and problems: exit 2, HTTP 400.
	ClassInvalid
	// ClassInfeasible means the input was well-formed but no schedule
	// satisfies it (including admission rejections and unrecoverable
	// degradation): exit 3, HTTP 422.
	ClassInfeasible
	// ClassTimeout means the solver ran out of its wall-clock or decision
	// budget before reaching a definitive answer: exit 4, HTTP 504.
	ClassTimeout
)

// Classify buckets an error from the qcc/core/faults/sched/sim pipeline. Budget
// exhaustion is checked before infeasibility: a budget error wraps the last
// scheduling failure, and "ran out of time" must not masquerade as a
// definitive "no schedule exists".
func Classify(err error) Class {
	switch {
	case err == nil:
		return ClassOK
	case errors.Is(err, core.ErrBudget):
		return ClassTimeout
	case errors.Is(err, qcc.ErrBadConfig), errors.Is(err, core.ErrInvalidProblem),
		errors.Is(err, sim.ErrBadConfig), errors.Is(err, sched.ErrPlan):
		return ClassInvalid
	case errors.Is(err, core.ErrInfeasible),
		errors.Is(err, core.ErrNeedsReplan),
		errors.Is(err, faults.ErrRejected),
		errors.Is(err, faults.ErrUnrecoverable):
		return ClassInfeasible
	default:
		return ClassInternal
	}
}

// String names the class for logs, job records, and metrics labels.
func (c Class) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassInvalid:
		return "invalid"
	case ClassInfeasible:
		return "infeasible"
	case ClassTimeout:
		return "timeout"
	default:
		return "internal"
	}
}

// ExitCode is the machine-readable process exit code for the class: 0 ok,
// 1 internal, 2 invalid input, 3 infeasible, 4 timeout.
func (c Class) ExitCode() int {
	switch c {
	case ClassOK:
		return 0
	case ClassInvalid:
		return 2
	case ClassInfeasible:
		return 3
	case ClassTimeout:
		return 4
	default:
		return 1
	}
}

// HTTPStatus maps the class onto the daemon's response statuses: 400 for
// invalid input, 422 for infeasible, 504 for a solver deadline, 500
// otherwise.
func (c Class) HTTPStatus() int {
	switch c {
	case ClassOK:
		return http.StatusOK
	case ClassInvalid:
		return http.StatusBadRequest
	case ClassInfeasible:
		return http.StatusUnprocessableEntity
	case ClassTimeout:
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// ParseClass is the inverse of Class.String, for journal replay.
func ParseClass(s string) Class {
	switch s {
	case "ok":
		return ClassOK
	case "invalid":
		return ClassInvalid
	case "infeasible":
		return ClassInfeasible
	case "timeout":
		return ClassTimeout
	default:
		return ClassInternal
	}
}
