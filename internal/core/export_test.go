package core

// RandomProblem hands the property tests' instance generator to the external
// test package, which pins plans through experiments.PlanFingerprint
// (experiments imports core, so package core's own tests cannot).
var RandomProblem = randomProblem
