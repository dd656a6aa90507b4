package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"siot/internal/serve"
)

// replayCheck re-executes the run's journal with serve.Replay, which fails
// unless every served value reproduces bit-for-bit, and checks the journal
// holds exactly the queries served and the events acknowledged.
func replayCheck(path string, queries, events int) (time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("replay: %w", err)
	}
	defer f.Close()
	start := time.Now()
	st, err := serve.Replay(bufio.NewReaderSize(f, 1<<20))
	took := time.Since(start)
	if err != nil {
		return took, err
	}
	if st.Queries != uint64(queries) || st.Events != uint64(events) {
		return took, fmt.Errorf("replay reproduced %d queries and %d events, the run served %d and acknowledged %d",
			st.Queries, st.Events, queries, events)
	}
	return took, nil
}

// journalBytes sums the physical line bytes of the journal by line kind.
type journalBytes struct {
	queryBytes, queryLines int
	eventBytes, eventLines int
}

func (a journalBytes) plus(b journalBytes) journalBytes {
	return journalBytes{a.queryBytes + b.queryBytes, a.queryLines + b.queryLines, a.eventBytes + b.eventBytes, a.eventLines + b.eventLines}
}

func measureJournal(path string) (journalBytes, error) {
	var jb journalBytes
	f, err := os.Open(path)
	if err != nil {
		return jb, fmt.Errorf("journal size: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := r.ReadSlice('\n')
		switch {
		case bytes.Contains(line, []byte(`"kind":"query"`)):
			jb.queryBytes += len(line)
			jb.queryLines++
		case bytes.Contains(line, []byte(`"kind":"event"`)):
			jb.eventBytes += len(line)
			jb.eventLines++
		}
		if err == io.EOF {
			return jb, nil
		}
		if err != nil {
			return jb, fmt.Errorf("journal size: %w", err)
		}
	}
}

//go:embed pinned.json
var pinnedJSON []byte

// pinnedSeed is the seed whose simulation digest is pinned per workload.
const pinnedSeed = 1

// checkDigest compares the first simulation cycle of the pinned seed with
// the digest recorded in pinned.json. Other seeds are not pinned.
func checkDigest(workload string, seed uint64, got simDigest) error {
	if seed != pinnedSeed {
		return nil
	}
	var pinned map[string]simDigest
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		return fmt.Errorf("pinned.json: %w", err)
	}
	want, ok := pinned[workload]
	if !ok {
		return fmt.Errorf("pinned.json has no digest for %s", workload)
	}
	if want.Rounds != got.Rounds {
		return fmt.Errorf("round counters %+v, pinned %+v", got.Rounds, want.Rounds)
	}
	if len(want.Sweeps) != len(got.Sweeps) {
		return fmt.Errorf("sweeps %v, pinned %v", got.Sweeps, want.Sweeps)
	}
	for name, w := range want.Sweeps {
		if g := got.Sweeps[name]; g != w {
			return fmt.Errorf("%s sweep %+v, pinned %+v", name, g, w)
		}
	}
	return nil
}
