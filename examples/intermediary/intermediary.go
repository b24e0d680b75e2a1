// Package intermediary implements the approach the paper's introduction
// positions active files against: "the ad hoc use of intermediary
// applications that isolate the end application from the data sources.
// These intermediaries perform necessary operations ... before aggregating
// the data into a passive file that can be handed down to legacy
// applications."
//
// It exists as a comparison baseline, not as part of the system: nothing
// outside this directory imports it, and it runs only under `go test`. Its
// disadvantage — demonstrated by the tests beside it — is exactly the
// paper's: "the data collected by the
// intermediary is completely decoupled from both the original sources of the
// information and the end application. Consequently, it is unable to track
// changes in the original sources or be controlled by the end application."
package intermediary

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/cache"
)

// Stage copies the remote object's current contents into the passive file
// at path — the intermediary's one-shot aggregation step. The legacy
// application is then run against path.
func Stage(src cache.Object, path string) error {
	size, err := src.Size()
	if err != nil {
		return fmt.Errorf("intermediary: source size: %w", err)
	}
	out, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("intermediary: create staging file: %w", err)
	}
	defer out.Close()

	buf := make([]byte, 64*1024)
	var off int64
	for off < size {
		n := len(buf)
		if int64(n) > size-off {
			n = int(size - off)
		}
		rn, rerr := src.ReadAt(buf[:n], off)
		if rn > 0 {
			if _, werr := out.Write(buf[:rn]); werr != nil {
				return fmt.Errorf("intermediary: write staging file: %w", werr)
			}
			off += int64(rn)
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				break
			}
			return fmt.Errorf("intermediary: read source: %w", rerr)
		}
		if rn == 0 {
			break
		}
	}
	return out.Sync()
}

// Collect pushes the passive file's contents back to the remote object —
// the intermediary's best effort at propagating results after the legacy
// application exits. Anything the application expects to happen between
// Stage and Collect (tracking source changes, influencing the aggregation)
// cannot.
func Collect(path string, dst cache.Object) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("intermediary: read staging file: %w", err)
	}
	if err := dst.Truncate(int64(len(data))); err != nil {
		return fmt.Errorf("intermediary: truncate source: %w", err)
	}
	if _, err := dst.WriteAt(data, 0); err != nil {
		return fmt.Errorf("intermediary: write source: %w", err)
	}
	return nil
}
