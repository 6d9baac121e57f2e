package obs

import (
	"encoding/json"
	"testing"
)

// FuzzValidateReport checks that no input panics the obs document
// validator: it must return a schema and an error, or accept the document.
func FuzzValidateReport(f *testing.F) {
	for _, v := range []any{
		validRun(),
		RunsFile{Schema: SchemaRuns, Runs: []RunReport{validRun()}},
		Status{Schema: SchemaStatus, JobsDone: 2, JobsTotal: 5},
	} {
		data, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"schema":"` + SchemaTS + `","columns":["cycle"],"rows":[[1]]}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ValidateReport(data)
	})
}
