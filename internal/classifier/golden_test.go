package classifier

import (
	"hash/fnv"
	"math"
	"testing"

	"fedguard/internal/dataset"
	"fedguard/internal/rng"
)

// TestTrainEpochGolden pins the weights of Small and Tiny after one
// local epoch to FNV-1a fingerprints recorded before the Linear forward
// rule and Linear.InputGradOff existed. Every build — AVX or purego —
// must reproduce them bit for bit.
func TestTrainEpochGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		arch Arch
		want uint64
	}{
		{"Small", Small(), 0xe6ee11e7991285d3},
		{"Tiny", Tiny(), 0xbb0a568c140c19de},
	} {
		r := rng.New(11)
		train := dataset.Generate(100, dataset.DefaultGenOptions(), r)
		model := tc.arch(r)
		Train(model, train, dataset.Range(train.Len()), TrainConfig{Epochs: 1, BatchSize: 32, LR: 0.05, Momentum: 0.9}, r)
		if got := hashFloats(model.FlattenParams()); got != tc.want {
			t.Errorf("%s weights hash %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// hashFloats fingerprints a float32 vector bit for bit (FNV-1a over the
// little-endian bytes).
func hashFloats(ws []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range ws {
		bits := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}
