package core

// RandomProblem hands the property tests' instance generator to the external
// test package, which pins plans through experiments.PlanFingerprint
// (experiments imports core, so package core's own tests cannot).
var RandomProblem = randomProblem

// ZeroPropInCascade makes every cascade stage plan as if no link had
// propagation delay, so on a network with delay each stage's plan breaks
// the adjacent-link constraint and only the cascade's verifier stands
// between it and the caller. The returned func undoes it.
func ZeroPropInCascade() (restore func()) {
	stageHook = zeroProp
	return func() { stageHook = nil }
}
