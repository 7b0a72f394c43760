package main

import (
	"fmt"
	"math/rand"

	"osprof/internal/core"
	"osprof/internal/store"
)

// Input generators for the service workloads. They are adapted from
// the `osprof bench ingest|analysis` generators (cmd/osprof is a main
// package and cannot be imported), with the seed mixed into every
// shape, so one seed always yields the same inputs and two seeds yield
// different ones of the same size.

var fillerOps = [...]string{"read", "write", "lookup", "readdir", "unlink"}

// fillerRun is archive filler run i: five operations with a base mode
// per op plus a slow-path peak, pairwise distinct in i.
func fillerRun(seed int64, i int) *core.Run {
	app := fmt.Sprintf("osbench/app-%02d", i%50)
	s := core.NewSet(app)
	mix := int(seed%1000) * 7477
	for oi, op := range fillerOps {
		n := 120 + (i*31+oi*17+mix)%120
		for j := 0; j < n; j++ {
			lat := uint64(1) << uint(6+oi*2+(j%3))
			lat += uint64((i*2654435761 + j*40503 + oi*9176 + mix) % int(lat/2+1))
			if j%37 == 0 {
				lat <<= 8
			}
			s.Record(op, lat)
		}
	}
	return &core.Run{Fingerprint: fmt.Sprintf("osbench-app-%02d", i%50), Set: s}
}

// corpusRun is labeled corpus member rep of label li: each label has
// its own modal structure and the rep perturbs counts, so two reps of
// a label are distinct but close. Op modes cycle over corpusLabels
// values, so no two labels share one; a cycle shorter than the label
// count would make some labels twins the classifier rightly calls
// ambiguous.
func corpusRun(seed int64, li, rep int) *core.Run {
	label := fmt.Sprintf("osbench-label-%02d", li)
	s := core.NewSet("osbench/corpus/" + label)
	mix := int(seed % 1000)
	for oi, op := range fillerOps {
		n := 200 + rep*3 + oi*11 + mix%17
		for j := 0; j < n; j++ {
			lat := uint64(1) << uint(5+(oi+li)%corpusLabels)
			lat += uint64((li*7919 + rep*104729 + j*31 + mix*613) % int(lat/2+1))
			if j%(29+li%7) == 0 {
				lat <<= 6
			}
			s.Record(op, lat)
		}
	}
	return &core.Run{
		Fingerprint: "osbench-corpus-" + label,
		Meta:        map[string]string{store.LabelMetaKey: label},
		Set:         s,
	}
}

// observer produces one live session's observations: a seeded stream
// of latencies over a few operations, like an instrumented server's.
type observer struct {
	rng *rand.Rand
}

func newObserver(seed int64, client, session int) *observer {
	return &observer{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client)*1009 + int64(session)))}
}

var liveOps = [...]string{"read", "write", "fsync", "lookup"}

// next returns the operation and latency of the next observation.
func (o *observer) next() (string, uint64) {
	op := liveOps[o.rng.Intn(len(liveOps))]
	lat := uint64(1)<<uint(8+o.rng.Intn(12)) + uint64(o.rng.Intn(4096))
	return op, lat
}

// watchedName is the run name client c reports full runs under.
func watchedName(c int) string { return fmt.Sprintf("osbench/watch-%d", c) }

// watchedRun is client c's full-run report v. Even reports repeat the
// blessed baseline (v == 0) exactly, the steady state of a healthy
// fleet; odd ones shift one operation's latency, which sends the watch
// through the full diff-and-attribute ladder.
func watchedRun(seed int64, c, v int) *core.Run {
	name := watchedName(c)
	s := core.NewSet(name)
	rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
	shift := uint(0)
	if v%2 == 1 {
		shift = uint(1 + (v/2)%3)
	}
	for oi, op := range fillerOps {
		for j := 0; j < 300; j++ {
			lat := uint64(1)<<uint(7+oi) + uint64(rng.Intn(1<<uint(6+oi)))
			if oi == 0 {
				lat <<= shift
			}
			s.Record(op, lat)
		}
	}
	return &core.Run{Fingerprint: "osbench-watched-" + name, Set: s}
}
