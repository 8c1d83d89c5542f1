package main

import (
	"sync"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/gogen"
	"repro/internal/lexer"
	"repro/internal/parser"
	"repro/internal/sema"
)

// frontStats collects the frontend and codegen layer figures, each timed
// at the layer's public call, over a sample of a workload's sources.
type frontStats struct {
	mu        sync.Mutex
	tokens    int
	lexTime   time.Duration
	parseUS   []float64
	semaUS    []float64
	vmUS      []float64
	compileUS []float64
	instrs    []float64
	emitMS    []float64
	emitBytes []float64
}

func (f *frontStats) add(dst *[]float64, v float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	*dst = append(*dst, v)
}

// parseTimed does what core.Parse does — parser.Parse, then sema.Check —
// timing each call. With f set it also times lexer.ScanAll on the same
// source (the parser lexes internally, so the lexer figure comes from a
// separate scan) and records the figures.
func parseTimed(name, src string, f *frontStats, rec *recorder, op, parent int) (*core.Program, error) {
	if f != nil {
		var toks int
		d := rec.timed("lexer", op, parent, func() {
			t, _ := lexer.ScanAll(name, src)
			toks = len(t)
		})
		f.mu.Lock()
		f.tokens += toks
		f.lexTime += d
		f.mu.Unlock()
	}
	var tree *ast.Program
	var err error
	d := rec.timed("parser", op, parent, func() { tree, err = parser.Parse(name, src) })
	if f != nil {
		f.add(&f.parseUS, us(d))
	}
	if err != nil {
		return nil, err
	}
	var info *sema.Info
	d = rec.timed("sema", op, parent, func() { info, err = sema.Check(tree) })
	if f != nil {
		f.add(&f.semaUS, us(d))
	}
	if err != nil {
		return nil, err
	}
	return &core.Program{File: name, Source: src, AST: tree, Info: info}, nil
}

// prepareTimed builds the VM and closure-compiler forms ahead of the timed
// phase, and, with f set, times gogen.Emit and counts bytecode after
// fusion. Programs the Go emitter rejects skip the gogen figures.
func prepareTimed(prog *core.Program, f *frontStats, rec *recorder, op, parent int) error {
	var err error
	d := rec.timed("vm.compile", op, parent, func() { err = prog.Prepare(core.BackendVM) })
	if err != nil {
		return err
	}
	if f != nil {
		f.add(&f.vmUS, us(d))
	}
	d = rec.timed("compile.compile", op, parent, func() { err = prog.Prepare(core.BackendCompile) })
	if err != nil {
		return err
	}
	if f == nil {
		return nil
	}
	f.add(&f.compileUS, us(d))
	bc, err := prog.Bytecode()
	if err != nil {
		return err
	}
	n := len(bc.Main.Code)
	for _, c := range bc.Funcs {
		n += len(c.Code)
	}
	f.add(&f.instrs, float64(n))
	if gogen.Check(prog.Info) != nil {
		return nil
	}
	var src []byte
	d = rec.timed("gogen", op, parent, func() { src, err = gogen.Emit(prog.Info) })
	if err != nil {
		return nil
	}
	f.add(&f.emitMS, ms(d))
	f.add(&f.emitBytes, float64(len(src)))
	return nil
}

// metrics renders the frontend figures under their per-layer names.
func (f *frontStats) metrics(m *metricSet) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m.set("lexer.tokens_per_s", ratio(float64(f.tokens), f.lexTime.Seconds()), "1/s")
	m.set("parser.parse_us", median(f.parseUS), "us")
	m.set("sema.check_us", median(f.semaUS), "us")
	m.set("vm.compile_us", median(f.vmUS), "us")
	m.set("vm.instrs", median(f.instrs), "count")
	m.set("compile.compile_us", median(f.compileUS), "us")
	m.set("gogen.emit_ms", median(f.emitMS), "ms")
	m.set("gogen.bytes", median(f.emitBytes), "B")
}
