package cvae

import (
	"hash/fnv"
	"math"
	"testing"

	"fedguard/internal/dataset"
	"fedguard/internal/rng"
)

// goldenDecoderHash is the FNV-1a fingerprint of the decoder payload
// below, recorded before the vector Adam kernel, the batch-side Linear
// transpose and the zero-allocation step existed. Every build — AVX or
// purego, any worker count — must reproduce it bit for bit.
const goldenDecoderHash = 0x09ce927955a9ab20

// TestTrainDecoderGolden trains a SmallConfig CVAE for three epochs on
// 100 SynthDigits samples (a 4-row final batch, off the 8-row vector
// rule) and pins the uploaded decoder payload.
func TestTrainDecoderGolden(t *testing.T) {
	r := rng.New(11)
	train := dataset.Generate(100, dataset.DefaultGenOptions(), r)
	m := New(SmallConfig(), r)
	m.Train(train, dataset.Range(train.Len()), TrainConfig{Epochs: 3, BatchSize: 32, LR: 1e-3}, r)
	if got := hashFloats(m.DecoderParams()); got != goldenDecoderHash {
		t.Fatalf("decoder payload hash %#016x, want %#016x", got, uint64(goldenDecoderHash))
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
