package serve

import (
	"bytes"
	"io"
	"testing"
)

// FuzzJournalScan feeds arbitrary bytes to the journal scanner, the parser
// Recover and Replay run over on-disk journals. Whatever the input, the
// scanner must not panic, must classify every damaged line as a
// *corruptError whose offset points inside the input and moves strictly
// forward, and must end at io.EOF having consumed exactly every byte.
func FuzzJournalScan(f *testing.F) {
	lines := []journalLine{
		{Kind: "header", Header: &headerLine{Version: 3, Net: "twitter", Seed: 7, Chars: 4, Model: "aggressive", Seeded: true, Theta: 0.3}},
		{Kind: "header", Header: &headerLine{Version: 2, Net: "facebook", Nodes: 500, Seed: 1, Chars: 4, Policy: "conservative"}},
		{Kind: "event", Event: &eventLine{Seq: 1, Op: "observe", Trustor: 0, Trustee: 3, Type: 1, Success: true, Gain: 0.8, Damage: 0.1, Cost: 0.05, Abusive: true}},
		{Kind: "event", Event: &eventLine{Seq: 2, Op: "recommend", Trustor: 4, Trustee: 9, S: 0.9, G: 0.7, D: 0.1, C: 0.1}},
		{Kind: "epoch", Epoch: &epochLine{ID: 3, Events: 2}},
		{Kind: "query", Query: &queryLine{Epoch: 3, Trustor: 0, Trustee: 5, TW: 0.625, TWBits: "3fe4000000000000", Found: true, Direct: true}},
	}
	var journal []byte
	for _, l := range lines {
		raw, err := encodeJournalLine(l)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		journal = append(journal, raw...)
	}
	f.Add(journal)
	f.Add(journal[:len(journal)-len(journal)/3])

	f.Fuzz(func(t *testing.T, data []byte) {
		s := newJournalScanner(bytes.NewReader(data))
		lastOff := int64(-1)
		for steps := 0; ; steps++ {
			if steps > len(data) {
				t.Fatalf("scanner did not reach io.EOF after %d calls on %d bytes", steps, len(data))
			}
			_, err := s.next()
			if err == io.EOF {
				break
			}
			if err == nil {
				continue
			}
			ce, ok := err.(*corruptError)
			if !ok {
				t.Fatalf("error %v (%T) is not a *corruptError", err, err)
			}
			if ce.Off <= lastOff || ce.Off >= int64(len(data)) {
				t.Fatalf("corrupt line offset %d after %d, input length %d", ce.Off, lastOff, len(data))
			}
			lastOff = ce.Off
		}
		if got := s.Off(); got != int64(len(data)) {
			t.Fatalf("scanner stopped at offset %d, input length %d", got, len(data))
		}
	})
}
