// Package exp is the experiment harness: one function per exhibit in
// the paper (the FTP bandwidth table and every figure that encodes a
// performance or behaviour claim), each regenerating the exhibit from
// the code in this repository. cmd/easiabench prints them; the root
// bench_test.go wraps them as Go benchmarks.
package exp

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dlfs"
	"repro/internal/med"
	"repro/internal/script"
	"repro/internal/turb"
	"repro/internal/xuis"
)

// Report is one regenerated exhibit.
type Report struct {
	ID    string // "E1" … "E12"
	Title string
	Text  string // the formatted table/figure content
}

// DemoArchive is a fully assembled in-process EASIA deployment used by
// several experiments: two file-server hosts, the turbulence schema,
// one simulation with a real dataset and one archived operation code.
type DemoArchive struct {
	Archive *core.Archive
	FS1     *dlfs.Manager
	FS2     *dlfs.Manager
	// GridN is the dataset grid size.
	GridN int
	// DatasetURL and CodeURL are the archived DATALINK values.
	DatasetURL string
	CodeURL    string
	cleanups   []func()
}

// Close releases the deployment.
func (d *DemoArchive) Close() {
	for i := len(d.cleanups) - 1; i >= 0; i-- {
		d.cleanups[i]()
	}
}

// demoGetImage is the archived post-processing code: render the middle
// slice of the requested component.
const demoGetImage = `
let axis = params["slice"]
let comp = params["type"]
if (axis == nil) { axis = "z" }
if (comp == nil) { comp = "u" }
let info = datasetInfo(filename)
let mid = floor(info.n / 2)
let bytes = writeImage("slice.pgm", filename, comp, axis, mid)
print("rendered", comp, "slice", axis, "=", mid, "(", bytes, "bytes )")
`

// tempDirer abstracts testing.TB and plain callers for workspace dirs.
type tempDirer interface{ TempDir() string }

// BuildDemoArchive assembles the deployment. dirs supplies temporary
// directories (a *testing.T/B in tests, an osTempDirer in cmds).
func BuildDemoArchive(dirs tempDirer, gridN int) (*DemoArchive, error) {
	return BuildDemoArchiveLimits(dirs, gridN,
		script.Limits{MaxSteps: 200_000_000, MaxHeap: 256 << 20, MaxOutput: 16 << 20})
}

// BuildDemoArchiveLimits is BuildDemoArchive with an explicit sandbox
// budget (the fault-injection experiments use small budgets so hostile
// infinite loops are cut off quickly).
func BuildDemoArchiveLimits(dirs tempDirer, gridN int, limits script.Limits) (*DemoArchive, error) {
	secret := []byte("exp-secret")
	a, err := core.Open(core.Config{
		Secret:       secret,
		WorkRoot:     dirs.TempDir(),
		ScriptLimits: limits,
	})
	if err != nil {
		return nil, err
	}
	d := &DemoArchive{Archive: a, GridN: gridN}
	d.cleanups = append(d.cleanups, func() { a.Close() })

	auth, err := med.NewTokenAuthority(secret, 0)
	if err != nil {
		d.Close()
		return nil, err
	}
	mk := func(host string) (*dlfs.Manager, error) {
		store, err := dlfs.NewStore(dirs.TempDir())
		if err != nil {
			return nil, err
		}
		m := dlfs.NewManager(host, store, auth)
		a.AttachFileServer(core.WrapManager(m))
		return m, nil
	}
	if d.FS1, err = mk("fs1.sim:80"); err != nil {
		d.Close()
		return nil, err
	}
	if d.FS2, err = mk("fs2.sim:80"); err != nil {
		d.Close()
		return nil, err
	}
	if err := a.InitTurbulenceSchema(); err != nil {
		d.Close()
		return nil, err
	}
	for _, sql := range []string{
		`INSERT INTO AUTHOR VALUES ('A19990110151042', 'Papiani', 'University of Southampton', 'p@soton.ac.uk')`,
		fmt.Sprintf(`INSERT INTO SIMULATION VALUES ('S19990110150932', 'A19990110151042',
			'Turbulent channel flow', 'DNS of channel flow.', %d, 1395.0, 100, '2000-03-27 09:00:00')`, gridN),
	} {
		if _, err := a.DB.Exec(sql); err != nil {
			d.Close()
			return nil, err
		}
	}
	var tsf bytes.Buffer
	if _, err := turb.Generate(gridN, 4, 7).WriteTo(&tsf); err != nil {
		d.Close()
		return nil, err
	}
	d.DatasetURL, err = a.ArchiveFile("fs1.sim:80", "/vol0/run1/ts4.tsf", bytes.NewReader(tsf.Bytes()))
	if err != nil {
		d.Close()
		return nil, err
	}
	if _, err := a.DB.Exec(fmt.Sprintf(
		`INSERT INTO RESULT_FILE VALUES ('ts4.tsf', 'S19990110150932', 4, 'u,v,w,p', 'TSF', %d, DLVALUE('%s'))`,
		tsf.Len(), d.DatasetURL)); err != nil {
		d.Close()
		return nil, err
	}
	d.CodeURL, err = a.ArchiveFile("fs2.sim:80", "/codes/getimage.easl", bytes.NewReader([]byte(demoGetImage)))
	if err != nil {
		d.Close()
		return nil, err
	}
	if _, err := a.DB.Exec(fmt.Sprintf(
		`INSERT INTO CODE_FILE VALUES ('GetImage.easl', 'S19990110150932', 'EASL', 'Slice renderer', DLVALUE('%s'))`,
		d.CodeURL)); err != nil {
		d.Close()
		return nil, err
	}
	spec, err := a.GenerateXUIS("TURBULENCE")
	if err != nil {
		d.Close()
		return nil, err
	}
	if err := spec.AddOperation("RESULT_FILE", "DOWNLOAD_RESULT", DemoOperation()); err != nil {
		d.Close()
		return nil, err
	}
	if err := spec.SetUpload("RESULT_FILE", "DOWNLOAD_RESULT", &xuis.Upload{
		Type: "EASL", Format: "easl", GuestAccess: false,
	}); err != nil {
		d.Close()
		return nil, err
	}
	if err := a.SetSpec(spec); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// DemoOperation is the XUIS markup for the archived GetImage code —
// the paper's operation fragment rebuilt against this schema.
func DemoOperation() *xuis.Operation {
	return &xuis.Operation{
		Name: "GetImage", Type: "EASL", Filename: "getimage.easl", Format: "easl", GuestAccess: true,
		Location: &xuis.Location{DatabaseResult: &xuis.DatabaseResult{
			ColID:      "CODE_FILE.DOWNLOAD_CODE_FILE",
			Conditions: []xuis.Condition{{ColID: "CODE_FILE.CODE_NAME", Eq: "'GetImage.easl'"}},
		}},
		Description: "Visualise one slice of the dataset",
		Parameters: &xuis.Parameters{Params: []xuis.Param{
			{Variable: xuis.Variable{
				Description: "Select the slice you wish to visualise:",
				Select: &xuis.Select{Name: "slice", Size: 3, Options: []xuis.Option{
					{Value: "x", Label: "x plane"}, {Value: "y", Label: "y plane"}, {Value: "z", Label: "z plane"},
				}},
			}},
			{Variable: xuis.Variable{
				Description: "Select velocity component or pressure:",
				Inputs: []xuis.Input{
					{Type: "radio", Name: "type", Value: "u", Label: "u speed"},
					{Type: "radio", Name: "type", Value: "v", Label: "v speed"},
					{Type: "radio", Name: "type", Value: "w", Label: "w speed"},
					{Type: "radio", Name: "type", Value: "p", Label: "pressure"},
				},
			}},
		}},
	}
}

// RunDemoOperation executes the archived GetImage against the demo row.
func (d *DemoArchive) RunDemoOperation(axis string) (int64, error) {
	res, err := d.Archive.RunOperation("GetImage", "RESULT_FILE.DOWNLOAD_RESULT", "RESULT_FILE",
		map[string]string{"FILE_NAME": "ts4.tsf", "SIMULATION_KEY": "S19990110150932"},
		map[string]string{"slice": axis, "type": "u"},
		core.User{Name: "bench"})
	if err != nil {
		return 0, err
	}
	return res.TotalOutputBytes(), nil
}

// drainAndClose is a small helper shared by experiments.
func drainAndClose(rc io.ReadCloser) (int64, error) {
	defer rc.Close()
	return io.Copy(io.Discard, rc)
}

// fmtBytes renders byte counts the way the reports do.
func fmtBytes(n int64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.2f GB", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.2f MB", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.2f KB", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d B", n)
	}
}
