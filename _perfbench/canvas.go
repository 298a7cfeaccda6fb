package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/display"
	"repro/internal/raster"
	"repro/internal/types"
	"repro/internal/viewer"
)

// Frame size shared by every workload.
const frameW, frameH = 320, 240

// stationsCanvasName is the canvas browse and live serve.
const stationsCanvasName = "Stations"

// box is one (kind, params) step of a program chain.
type box struct {
	kind   string
	params dataflow.Params
}

// addChain adds boxes and wires each one's output 0 to the next one's
// input 0, returning the box IDs.
func addChain(env *core.Environment, steps ...box) ([]int, error) {
	ids := make([]int, 0, len(steps))
	for i, s := range steps {
		b, err := env.Program.AddBox(s.kind, s.params)
		if err != nil {
			return nil, fmt.Errorf("add %s: %w", s.kind, err)
		}
		if i > 0 {
			if err := env.Program.Connect(ids[i-1], 0, b.ID, 0); err != nil {
				return nil, fmt.Errorf("connect %s: %w", s.kind, err)
			}
		}
		ids = append(ids, b.ID)
	}
	return ids, nil
}

// stationsCanvas is the browse/live session program: every station,
// drawn as a circle whose radius is an expression over altitude,
// located at (longitude, latitude) with altitude as a slider. The
// home view is centred on Texas at elevation 16, which frames most of
// the continent.
func stationsCanvas(env *core.Environment) (string, error) {
	ids, err := addChain(env,
		box{"table", dataflow.Params{"name": "Stations"}},
		box{"setdisplay", dataflow.Params{"name": "display", "active": "true",
			"spec": "circle r=0.05 rexpr='0.04 + altitude/20000' color=blue"}},
		box{"setlocation", dataflow.Params{"attrs": "longitude,latitude,altitude"}},
	)
	if err != nil {
		return "", err
	}
	v, err := env.AddViewer(stationsCanvasName, ids[len(ids)-1], 0, frameW, frameH)
	if err != nil {
		return "", err
	}
	if err := v.PanTo(0, homeX, homeY); err != nil {
		return "", err
	}
	if err := v.SetElevation(0, homeElev); err != nil {
		return "", err
	}
	return stationsCanvasName, nil
}

// Home viewport of the stations canvas.
const homeX, homeY, homeElev = -99.0, 31.0, 16.0

// refViewer builds an in-process reference viewer of the stations
// canvas over env's evaluator, configured exactly as the server
// configures a client's viewer (a fresh viewer seeded with the
// template's view states), so equal viewports must give equal PNGs.
func refViewer(env *core.Environment) (*viewer.Viewer, error) {
	name, err := stationsCanvas(env)
	if err != nil {
		return nil, err
	}
	tmpl, err := env.Canvas(name)
	if err != nil {
		return nil, err
	}
	bs, ok := tmpl.Source.(viewer.BoxSource)
	if !ok {
		return nil, fmt.Errorf("canvas %q has no box source", name)
	}
	v := viewer.New(name+"/ref", viewer.BoxSource{Eval: env.Eval, BoxID: bs.BoxID, Port: bs.Port}, frameW, frameH)
	v.SetStates(tmpl.States())
	return v, nil
}

// renderPNG renders one frame and encodes it, as the server does.
func renderPNG(ctx context.Context, v *viewer.Viewer) ([]byte, error) {
	img := raster.NewImage(v.W, v.H)
	if _, err := v.RenderIntoCtx(ctx, img); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := img.WritePNG(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// viewport is member 0's center and elevation; the only view state the
// workloads change.
type viewport struct{ X, Y, Elev float64 }

func (vp viewport) apply(v *viewer.Viewer) error {
	if err := v.PanTo(0, vp.X, vp.Y); err != nil {
		return err
	}
	return v.SetElevation(0, vp.Elev)
}

// pngHash is the identity the oracles compare frames by.
func pngHash(b []byte) [32]byte { return sha256.Sum256(b) }

// relFingerprint hashes every layer's tuples (kind and value of every
// field, in order) together with their cardinalities.
func relFingerprint(d display.Displayable) string {
	h := fnv.New64a()
	var b [9]byte
	rows := 0
	for _, m := range display.Promote(d).Members {
		for _, l := range m.Layers {
			rel := l.Ext.Rel
			rows += rel.Len()
			for i := 0; i < rel.Len(); i++ {
				for _, v := range rel.Tuple(i) {
					b[0] = byte(v.Kind())
					binary.LittleEndian.PutUint64(b[1:], 0)
					switch v.Kind() {
					case types.Int:
						binary.LittleEndian.PutUint64(b[1:], uint64(v.Int()))
					case types.Bool:
						if v.Bool() {
							b[1] = 1
						}
					case types.Date:
						binary.LittleEndian.PutUint64(b[1:], uint64(v.DateDays()))
					case types.Float:
						binary.LittleEndian.PutUint64(b[1:], math.Float64bits(v.Float()))
					case types.Text:
						binary.LittleEndian.PutUint64(b[1:], uint64(len(v.Text())))
						h.Write([]byte(v.Text()))
					}
					h.Write(b[:])
				}
			}
		}
	}
	return fmt.Sprintf("%d/%016x", rows, h.Sum64())
}
