package main

// pinned holds output digests recorded for known seeds, keyed
// "<check>@<seed>". Any change to a pinned output is a behaviour change of
// the program and fails the run's output check.
var pinned = map[string]string{
	"paper-exact/outputs@888":    "aeda67de5cc1c779",
	"ff-checkpoint/outputs@888":  "1721e90f0f2a7f89",
	"ff-checkpoint/snapshot@888": "2cd55079995eeab5",
}
