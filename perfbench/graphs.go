package main

import (
	"fmt"
	"strings"
	"time"

	"graphz/internal/dos"
	"graphz/internal/gen"
	"graphz/internal/graph"
	"graphz/internal/sim"
	"graphz/internal/storage"
)

// rawFile is the device name of the raw edge list every workload writes.
const rawFile = "raw"

// graphSpec is a generated input graph: R-MAT with the natural-graph
// quadrant skew, optionally stored in both directions.
type graphSpec struct {
	scale int
	edges int
	// symmetric stores every generated edge in both directions, so
	// connected components are weakly connected components and their
	// partition is independent of vertex numbering.
	symmetric bool
}

func (s graphSpec) generate(seed uint64, tr *tracer, parent int) []graph.Edge {
	id := tr.begin("gen", parent)
	defer tr.end(id)
	edges := gen.RMAT(s.scale, s.edges, gen.NaturalRMAT, seed)
	if !s.symmetric {
		return edges
	}
	out := make([]graph.Edge, 0, 2*len(edges))
	for _, e := range edges {
		out = append(out, e, graph.Edge{Src: e.Dst, Dst: e.Src})
	}
	return out
}

// setup is one set-up pass: generate the edges and write them as the
// raw edge list on a fresh SSD-profile device.
type setup struct {
	edges []graph.Edge
	dev   *storage.Device
	write time.Duration
}

func newSetup(s graphSpec, seed uint64, tr *tracer, parent int) (setup, error) {
	edges := s.generate(seed, tr, parent)
	dev := storage.NewDevice(storage.SSD, storage.Options{})
	id := tr.begin("graph.WriteEdges", parent)
	t0 := time.Now()
	err := graph.WriteEdges(dev, rawFile, edges)
	write := time.Since(t0)
	tr.end(id)
	if err != nil {
		return setup{}, fmt.Errorf("writing edge list: %w", err)
	}
	return setup{edges: edges, dev: dev, write: write}, nil
}

// conversion is one timed dos.Convert.
type conversion struct {
	g       *dos.Graph
	wall    time.Duration
	alloc   uint64
	traffic map[string]storage.Stats // device traffic by file class
	io      storage.Stats
}

// convert runs dos.Convert of the raw edge list into prefix. A non-nil
// clock makes it the modeled conversion: the clock takes compute and IO
// charges, as graphz-convert attaches one.
func convert(dev *storage.Device, cfg dos.ConvertConfig, prefix string, clock *sim.Clock, tr *tracer, parent int) (conversion, error) {
	cfg.Dev = dev
	cfg.Clock = clock
	dev.SetClock(clock)
	defer dev.SetClock(nil)
	beforeFiles, before := dev.FileStats(), dev.Stats()
	a0 := totalAlloc()
	id := tr.begin("dos.Convert", parent)
	t0 := time.Now()
	g, err := dos.Convert(cfg, rawFile, prefix)
	wall := time.Since(t0)
	tr.end(id)
	alloc := totalAlloc() - a0
	if err != nil {
		return conversion{}, fmt.Errorf("converting: %w", err)
	}
	return conversion{
		g:       g,
		wall:    wall,
		alloc:   alloc,
		traffic: trafficByClass(beforeFiles, dev.FileStats()),
		io:      dev.Stats().Sub(before),
	}, nil
}

// removePrefix drops every device file whose name starts with prefix.
func removePrefix(dev *storage.Device, prefix string) error {
	for _, f := range dev.List() {
		if strings.HasPrefix(f, prefix) {
			if err := dev.Remove(f); err != nil {
				return fmt.Errorf("removing %s: %w", f, err)
			}
		}
	}
	return nil
}

// File classes device traffic is attributed to, by file name.
const (
	classEdges      = "edges"       // <prefix>.edges: the DOS adjacency
	classVState     = "vstate"      // <engine>.vstate: vertex states
	classMsgs       = "msgs"        // <engine>.msgs.<p>, .merge*: spilled messages
	classConvertTmp = "convert_tmp" // <prefix>.tmp.*, *.run*: conversion and sort temporaries
	classRaw        = "raw"         // the raw edge list
	classOther      = "other"       // DOS meta and ID maps
)

func fileClass(name string) string {
	switch {
	case strings.HasSuffix(name, ".vstate"):
		return classVState
	case strings.Contains(name, ".msgs.") || strings.Contains(name, ".merge"):
		return classMsgs
	case strings.Contains(name, ".tmp.") || strings.Contains(name, ".run"):
		return classConvertTmp
	case strings.HasSuffix(name, ".edges"):
		return classEdges
	case name == rawFile:
		return classRaw
	}
	return classOther
}

// trafficByClass sums the per-file traffic between two Device.FileStats
// snapshots by file class.
func trafficByClass(before, after map[string]storage.Stats) map[string]storage.Stats {
	out := make(map[string]storage.Stats)
	for name, s := range after {
		c := fileClass(name)
		out[c] = out[c].Add(s.Sub(before[name]))
	}
	return out
}
