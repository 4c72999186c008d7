package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRegenerateGolden rewrites every testdata golden fixture when the
// OBS_UPDATE_GOLDEN environment variable is set. Kept as a test so the
// fixtures can be regenerated without a separate generator binary:
//
//	OBS_UPDATE_GOLDEN=1 go test ./internal/obs -run TestRegenerateGolden
func TestRegenerateGolden(t *testing.T) {
	if os.Getenv("OBS_UPDATE_GOLDEN") == "" {
		t.Skip("set OBS_UPDATE_GOLDEN=1 to rewrite the golden files")
	}
	write := func(name string, data []byte) {
		if err := os.WriteFile(filepath.Join("testdata", name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	chrome, err := syntheticRecorder().Dump().ChromeTraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	write("chrome_golden.json", chrome)

	run := sampledRecorder().Dump()
	var jsonl, prom, html bytes.Buffer
	if err := run.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	write("timeline_golden.jsonl", jsonl.Bytes())
	if err := run.WritePromText(&prom); err != nil {
		t.Fatal(err)
	}
	write("prom_golden.txt", prom.Bytes())
	if err := run.WriteHTMLReport(&html); err != nil {
		t.Fatal(err)
	}
	write("html_golden.html", html.Bytes())
	write("report_golden.txt", []byte(run.Report().String()))

	d := DiffRuns(run, shiftedRecorder().Dump())
	write("diff_golden.txt", []byte(d.String()))
	j, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	write("diff_golden.json", append(j, '\n'))
}
