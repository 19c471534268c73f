package fed

import (
	"bufio"
	"bytes"
	"math"
	"testing"

	"fedpower/internal/nn"
)

func roundTrip(t *testing.T, m message) message {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	n, err := writeMessage(w, m)
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Fatalf("writeMessage reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := readMessage(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestMessageRoundTrip(t *testing.T) {
	m := message{kind: msgModel, round: 42, params: []float64{0.5, -1.25, 3}}
	got := roundTrip(t, m)
	if got.kind != msgModel || got.round != 42 {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range m.params {
		if got.params[i] != float64(float32(m.params[i])) {
			t.Errorf("param %d: %v -> %v", i, m.params[i], got.params[i])
		}
	}
}

func TestMessageRoundTripEmpty(t *testing.T) {
	got := roundTrip(t, message{kind: msgDone, round: 100})
	if got.kind != msgDone || got.round != 100 || len(got.params) != 0 {
		t.Fatalf("empty-payload round trip: %+v", got)
	}
}

func TestTransferSizeMatchesPaper(t *testing.T) {
	// §IV-C reports ~2.8 kB per transfer. The 687-parameter model encodes
	// to 2748 payload bytes + 9 header bytes.
	if got := TransferSize(687); got != 2757 {
		t.Fatalf("TransferSize(687) = %d, want 2757", got)
	}
}

func TestWriteMessageSizeAccounting(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	n, err := writeMessage(w, message{kind: msgUpdate, round: 1, params: make([]float64, 687)})
	if err != nil {
		t.Fatal(err)
	}
	if n != TransferSize(687) {
		t.Fatalf("wrote %d bytes, want TransferSize %d", n, TransferSize(687))
	}
}

func TestReadMessageRejectsUnknownType(t *testing.T) {
	raw := make([]byte, headerSize)
	raw[0] = 99
	if _, err := readMessage(bufio.NewReader(bytes.NewReader(raw))); err == nil {
		t.Fatal("unknown message type accepted")
	}
}

func TestReadMessageRejectsHugeCount(t *testing.T) {
	raw := make([]byte, headerSize)
	raw[0] = msgModel
	// count field at offset 5: maxWireParams+1
	c := uint32(maxWireParams + 1)
	raw[5] = byte(c)
	raw[6] = byte(c >> 8)
	raw[7] = byte(c >> 16)
	raw[8] = byte(c >> 24)
	if _, err := readMessage(bufio.NewReader(bytes.NewReader(raw))); err == nil {
		t.Fatal("oversized parameter count accepted")
	}
}

func TestReadMessageTruncatedHeader(t *testing.T) {
	if _, err := readMessage(bufio.NewReader(bytes.NewReader([]byte{msgModel, 0}))); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestReadMessageTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if _, err := writeMessage(w, message{kind: msgModel, round: 1, params: []float64{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-2] // chop the payload tail
	if _, err := readMessage(bufio.NewReader(bytes.NewReader(raw))); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestRoundTripPrecision(t *testing.T) {
	// Values within float32 range survive with relative error < 2^-23 —
	// far below the reward noise floor, as the package doc argues.
	params := []float64{0.005, 0.9, 0.0005, 0.01, -0.123456}
	got := roundTrip(t, message{kind: msgModel, round: 1, params: params})
	for i := range params {
		rel := math.Abs(got.params[i]-params[i]) / math.Abs(params[i])
		if rel > 1.0/(1<<22) {
			t.Errorf("param %d relative error %v", i, rel)
		}
	}
}

// TestRelayNaNTallyCannotWrap feeds the relay decoder a hand-built frame
// whose accumulator claims 2^32-1 NaN summands and merges it with an honest
// sibling's NaN. A wrapping tally would reach zero and let the poisoned sum
// read as finite; the merged sum must read NaN in either merge order.
func TestRelayNaNTallyCannotWrap(t *testing.T) {
	frame := []byte{
		msgRelay, 1, 0, 0, 0, 1, 0, 0, 0, // header: round 1, one accumulator
		1, 0, 0, 0, 13, 0, 0, 0, // leaves 1, block length 13
		0x40,                   // non-finite tallies follow, empty limb span
		0xff, 0xff, 0xff, 0xff, // nan
		0, 0, 0, 0, // posInf
		0, 0, 0, 0, // negInf
	}
	m, err := readMessage(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	relayed := contribution{sums: m.sums, leaves: m.leaves}
	honest := contribution{params: []float64{math.NaN()}, leaves: 1}
	for _, order := range [][]contribution{{relayed, honest}, {honest, relayed}} {
		acc := make([]nn.Accum, 1)
		global := make([]float64, 1)
		nn.MeanAccum(global, acc, accumulate(acc, order))
		if !math.IsNaN(global[0]) {
			t.Fatalf("merged relay NaN tally reads %v, want NaN", global[0])
		}
	}
}
