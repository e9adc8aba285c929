// Package trainer is a small pure-Go neural-network trainer used to obtain
// real trained weights for the functional experiments — most importantly
// the device-variation accuracy study (paper Figure 9), whose subject
// network substitutes for VGG16/ImageNet (see DESIGN.md §2: the study
// exercises the identical quantize → program-cells → perturb → re-evaluate
// code path on any trained network).
//
// Networks are bias-free MLPs with ReLU after every layer, including the
// classifier — exactly the function class FPSA's core-op executes — so the
// trained model maps onto the hardware with no structural approximation.
package trainer

import (
	"fmt"
	"math"
	"math/rand"

	"fpsa/internal/cgraph"
)

// Dataset is a labeled feature set with features in [0, 1].
type Dataset struct {
	X       [][]float64
	Y       []int
	Classes int
}

// Len returns the number of samples.
func (d Dataset) Len() int { return len(d.X) }

// Split partitions the dataset: the first ceil(frac·n) samples become the
// training set, the rest the held-out set. Samples are interleaved by
// class at generation time, so both halves cover every class.
func (d Dataset) Split(frac float64) (train, test Dataset) {
	cut := int(math.Ceil(frac * float64(d.Len())))
	if cut > d.Len() {
		cut = d.Len()
	}
	train = Dataset{X: d.X[:cut], Y: d.Y[:cut], Classes: d.Classes}
	test = Dataset{X: d.X[cut:], Y: d.Y[cut:], Classes: d.Classes}
	return train, test
}

// SyntheticClusters generates a classification dataset: `classes` Gaussian
// clusters with random centers in [0.2, 0.8]^dim and the given noise
// standard deviation, n samples total, features clamped to [0, 1].
func SyntheticClusters(rng *rand.Rand, n, dim, classes int, noise float64) Dataset {
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for j := range centers[c] {
			centers[c][j] = 0.2 + 0.6*rng.Float64()
		}
	}
	ds := Dataset{X: make([][]float64, n), Y: make([]int, n), Classes: classes}
	for i := 0; i < n; i++ {
		c := i % classes
		x := make([]float64, dim)
		for j := range x {
			v := centers[c][j] + rng.NormFloat64()*noise
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			x[j] = v
		}
		ds.X[i] = x
		ds.Y[i] = c
	}
	return ds
}

// MLP is a bias-free multi-layer perceptron with ReLU everywhere.
type MLP struct {
	// Dims is [input, hidden..., classes].
	Dims []int
	// W[l][i][j] is layer l's weight from input i to output j.
	W [][][]float64
}

// NewMLP initializes He-scaled random weights.
func NewMLP(rng *rand.Rand, dims []int) (*MLP, error) {
	if len(dims) < 2 {
		return nil, fmt.Errorf("trainer: need ≥2 dims, got %v", dims)
	}
	m := &MLP{Dims: append([]int(nil), dims...)}
	for l := 0; l+1 < len(dims); l++ {
		scale := math.Sqrt(2 / float64(dims[l]))
		w := make([][]float64, dims[l])
		for i := range w {
			w[i] = make([]float64, dims[l+1])
			for j := range w[i] {
				w[i][j] = rng.NormFloat64() * scale
			}
		}
		m.W = append(m.W, w)
	}
	return m, nil
}

// Layers returns the number of weight layers.
func (m *MLP) Layers() int { return len(m.W) }

// Forward runs inference, returning every layer's post-ReLU activations
// (acts[0] is the input).
func (m *MLP) Forward(x []float64) [][]float64 {
	acts := make([][]float64, len(m.W)+1)
	acts[0] = x
	for l, w := range m.W {
		out := make([]float64, m.Dims[l+1])
		in := acts[l]
		for i, wi := range w {
			xi := in[i]
			if xi == 0 {
				continue
			}
			out := out[:len(wi)] // one bounds check per row, not per element
			for j, wij := range wi {
				out[j] += wij * xi
			}
		}
		for j := range out {
			if out[j] < 0 {
				out[j] = 0
			}
		}
		acts[l+1] = out
	}
	return acts
}

// Predict returns the argmax class.
func (m *MLP) Predict(x []float64) int {
	acts := m.Forward(x)
	out := acts[len(acts)-1]
	best := 0
	for j, v := range out {
		if v > out[best] {
			best = j
		}
	}
	return best
}

// Accuracy evaluates classification accuracy on a dataset.
func (m *MLP) Accuracy(ds Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	for i, x := range ds.X {
		if m.Predict(x) == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

// TrainOptions configures SGD.
type TrainOptions struct {
	Epochs int
	LR     float64
	// Target is the one-hot magnitude (ReLU outputs regress toward it;
	// default 1).
	Target float64
}

// Train runs plain SGD with squared loss on the ReLU outputs. The final
// ReLU means wrong-class outputs are pushed to 0 and the true class toward
// Target — a hardware-friendly objective that needs no softmax.
func (m *MLP) Train(rng *rand.Rand, ds Dataset, opts TrainOptions) {
	if opts.Epochs <= 0 {
		opts.Epochs = 30
	}
	if opts.LR <= 0 {
		opts.LR = 0.05
	}
	if opts.Target <= 0 {
		opts.Target = 1
	}
	order := rng.Perm(ds.Len())
	for e := 0; e < opts.Epochs; e++ {
		for _, idx := range order {
			m.step(ds.X[idx], ds.Y[idx], opts.LR, opts.Target)
		}
	}
}

// step backpropagates one sample.
func (m *MLP) step(x []float64, label int, lr, target float64) {
	acts := m.Forward(x)
	out := acts[len(acts)-1]
	// dL/dout with L = Σ (out − t)².
	grad := make([]float64, len(out))
	for j := range out {
		t := 0.0
		if j == label {
			t = target
		}
		grad[j] = 2 * (out[j] - t)
		if out[j] == 0 && grad[j] > 0 {
			grad[j] = 0 // ReLU gate
		}
	}
	for l := len(m.W) - 1; l >= 0; l-- {
		in := acts[l]
		w := m.W[l]
		var next []float64
		if l > 0 {
			next = make([]float64, len(in))
		}
		for i := range w {
			xi := in[i]
			wi := w[i]
			grad := grad[:len(wi)]
			// One loop per case instead of a nil test per element; the
			// arithmetic and its order are unchanged.
			var g float64
			if next != nil {
				for j, gj := range grad {
					g += wi[j] * gj
					wi[j] -= lr * gj * xi
				}
			} else {
				for j, gj := range grad {
					wi[j] -= lr * gj * xi
				}
			}
			if next != nil {
				if xi == 0 && g > 0 {
					g = 0 // ReLU gate on the hidden activation
				}
				next[i] = g
			}
		}
		grad = next
	}
}

// LayerName returns the canonical layer name used by Graph and
// WeightSource ("fc1", "fc2", ...).
func LayerName(l int) string { return fmt.Sprintf("fc%d", l+1) }

// Graph builds the matching computational graph (Input → FC+ReLU ... →
// FC+ReLU), suitable for synth.Compile.
func (m *MLP) Graph(name string) *cgraph.Graph {
	g := cgraph.New(name)
	x := g.MustAdd("input", cgraph.Input{Shape: cgraph.Vec(m.Dims[0])})
	for l := 0; l < m.Layers(); l++ {
		x = g.MustAdd(LayerName(l), cgraph.FC{Out: m.Dims[l+1]}, x)
		x = g.MustAdd(LayerName(l)+"_relu", cgraph.ReLU{}, x)
	}
	return g
}

// WeightSource adapts the trained weights to synth.Options.Weights.
func (m *MLP) WeightSource() func(layer string) [][]float64 {
	byName := make(map[string][][]float64, m.Layers())
	for l, w := range m.W {
		byName[LayerName(l)] = w
	}
	return func(layer string) [][]float64 { return byName[layer] }
}

// Clone deep-copies the network (perturbation studies mutate copies).
func (m *MLP) Clone() *MLP {
	c := &MLP{Dims: append([]int(nil), m.Dims...)}
	for _, w := range m.W {
		cw := make([][]float64, len(w))
		for i := range w {
			cw[i] = append([]float64(nil), w[i]...)
		}
		c.W = append(c.W, cw)
	}
	return c
}
