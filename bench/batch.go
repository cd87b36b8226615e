package main

import (
	"bytes"
	"fmt"
	"time"

	"repro"
)

// door is a workload's front door: the only way the timed phases reach the
// program under test.
type door interface {
	// setup builds, verifies and installs the containers, starts whatever
	// serves them, and warms it up. It may be called again; each call starts
	// from nothing.
	setup() error
	// do runs one op for the given client and returns the front-door
	// latency. Input preparation and oracle checks are outside the clock.
	do(client int, o opSpec) (time.Duration, error)
	close()
}

// batchDoor drives the public repro package on one in-memory container.
type batchDoor struct {
	w    *workload
	v    *variant
	blob []byte
	bufs [2]bytes.Buffer // per client: the compress op's output
}

func (d *batchDoor) setup() error {
	var buf bytes.Buffer
	if _, err := d.w.compressInput(d.v, d.w.opt, &buf); err != nil {
		return err
	}
	d.blob = buf.Bytes()
	return verifyContainer(d.blob)
}

func (d *batchDoor) close() {}

func (d *batchDoor) do(client int, o opSpec) (time.Duration, error) {
	v := d.v
	switch o.class {
	case opCompress:
		buf := &d.bufs[client]
		buf.Reset()
		t0 := time.Now()
		_, err := d.w.compressInput(v, d.w.opt, buf)
		dt := time.Since(t0)
		if err == nil && !bytes.Equal(buf.Bytes(), v.blob) {
			err = fmt.Errorf("compress: container differs from the oracle's")
		}
		return dt, err
	case opFull:
		t0 := time.Now()
		h, err := repro.DecompressWorkers(d.blob, d.w.opt.Workers)
		dt := time.Since(t0)
		if err == nil {
			err = checkHierarchy(h, v.h, v.eb)
		}
		return dt, err
	case opLevel, opSlice:
		t0 := time.Now()
		r, err := repro.OpenContainerCached(bytes.NewReader(d.blob), int64(len(d.blob)), nil, "")
		if err != nil {
			return 0, err
		}
		want := v.h.Levels[o.level].Data
		if o.class == opSlice {
			got, err := r.ReadSlice(repro.AxisZ, o.k, 0)
			dt := time.Since(t0)
			if err == nil {
				err = checkField("slice", got, want.SliceZ(o.k), v.eb)
			}
			return dt, err
		}
		got, err := r.ReadLevel(o.level)
		dt := time.Since(t0)
		if err == nil {
			err = checkField("level", got, want, v.eb)
		}
		return dt, err
	case opAnalyze:
		return d.w.analyze(v)
	}
	return 0, fmt.Errorf("batch: op class %d has no library front door", o.class)
}

func checkField(what string, got, want *repro.Field, bound float64) error {
	if d := maxAbsDiff(got, want); d > bound {
		return fmt.Errorf("%s: max abs error %g exceeds bound %g", what, d, bound)
	}
	return nil
}

// analyze is the paper's whole loop on one input: compress, decompress,
// post-process, flatten, quality metrics and the isosurface-crossing
// probabilities. Post-processing moves a sample by at most half the bound
// (the largest intensity candidate), hence the 1.5.
func (w *workload) analyze(v *variant) (time.Duration, error) {
	opt := w.opt
	opt.PostProcess, opt.Uncertainty = true, true
	opt.IsoValue = v.isoValue()
	var res *repro.Result
	var err error
	t0 := time.Now()
	if w.amrFracs != nil {
		res, err = repro.CompressAMR(v.h, opt)
	} else {
		res, err = repro.CompressUniform(v.f, opt)
	}
	dt := time.Since(t0)
	if err != nil {
		return dt, err
	}
	if res.CrossProbabilities == nil {
		return dt, fmt.Errorf("analyze: no crossing probabilities")
	}
	return dt, checkHierarchy(res.Hierarchy, v.h, 1.5*v.eb)
}

// isoValue is the isovalue the uncertainty stage analyses: mid-range, which
// every input crosses.
func (v *variant) isoValue() float64 {
	lo, hi := v.f.Range()
	return (lo + hi) / 2
}
