//go:build race

package main

// raceEnabled reports a -race build, which runs the serving workload
// too slowly for its fixed request rates.
const raceEnabled = true
