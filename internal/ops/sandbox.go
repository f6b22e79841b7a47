package ops

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/iofault"
	"repro/internal/script"
	"repro/internal/sqltypes"
	"repro/internal/turb"
	"repro/internal/xuis"
)

// runPackagedOperation is the paper's batch-file mechanism, step for
// step: create a unique temporary directory, unpack the code package
// into it, change into it, fetch the dataset next to it, and invoke a
// second, security-restricted interpreter on the entry file with the
// dataset filename as its argument. The generated plan is recorded in
// Result.BatchPlan.
func (e *Engine) runPackagedOperation(op *xuis.Operation, datasetURL string, params map[string]string, u User) (*Result, error) {
	code, err := e.resolveCode(op)
	if err != nil {
		return nil, err
	}
	workdir, err := e.newWorkDir(u.Name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)

	var plan strings.Builder
	fmt.Fprintf(&plan, "mkdir %s\n", workdir)
	fmt.Fprintf(&plan, "cd %s\n", workdir)

	entry := op.Filename
	if entry == "" {
		entry = op.Name + ".easl"
	}
	names, err := unpackPackage(code, op.Format, entry, workdir)
	if err != nil {
		return nil, fmt.Errorf("ops: unpacking %s package for %s: %w", op.Format, op.Name, err)
	}
	fmt.Fprintf(&plan, "unpack %s package (%d file(s): %s)\n", packFormat(op.Format), len(names), strings.Join(names, ", "))

	datasetFile, err := e.fetchDataset(datasetURL, workdir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&plan, "fetch dataset %s -> %s\n", datasetURL, datasetFile)
	fmt.Fprintf(&plan, "easl-run --sandbox %s %s\n", entry, datasetFile)

	res, err := e.executeEASL(workdir, entry, datasetFile, params)
	if err != nil {
		return nil, err
	}
	res.BatchPlan = plan.String()
	return res, nil
}

// runPackagedOnBytes runs a packaged operation against in-memory
// dataset bytes instead of an archived DATALINK — the chained-operation
// path, where the dataset is the previous stage's output and never had
// a URL.
func (e *Engine) runPackagedOnBytes(op *xuis.Operation, datasetName string, dataset []byte, params map[string]string, u User) (*Result, error) {
	code, err := e.resolveCode(op)
	if err != nil {
		return nil, err
	}
	workdir, err := e.newWorkDir(u.Name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)

	var plan strings.Builder
	fmt.Fprintf(&plan, "mkdir %s\n", workdir)
	fmt.Fprintf(&plan, "cd %s\n", workdir)
	entry := op.Filename
	if entry == "" {
		entry = op.Name + ".easl"
	}
	names, err := unpackPackage(code, op.Format, entry, workdir)
	if err != nil {
		return nil, fmt.Errorf("ops: unpacking %s package for %s: %w", op.Format, op.Name, err)
	}
	fmt.Fprintf(&plan, "unpack %s package (%d file(s): %s)\n", packFormat(op.Format), len(names), strings.Join(names, ", "))
	if err := writeConfined(workdir, datasetName, dataset); err != nil {
		return nil, err
	}
	fmt.Fprintf(&plan, "stage chained intermediate -> %s\n", datasetName)
	fmt.Fprintf(&plan, "easl-run --sandbox %s %s\n", entry, datasetName)

	res, err := e.executeEASL(workdir, entry, datasetName, params)
	if err != nil {
		return nil, err
	}
	res.BatchPlan = plan.String()
	return res, nil
}

// RunUploaded executes user-supplied code against the row's dataset,
// subject to the column's <upload> policy. This is the paper's "code
// upload for secure server-side execution".
func (e *Engine) RunUploaded(colID string, row map[string]sqltypes.Value, code []byte, format, entry string, params map[string]string, u User) (*Result, error) {
	col := e.findColumn(colID)
	if col == nil {
		return nil, fmt.Errorf("ops: unknown column %s", colID)
	}
	if col.Upload == nil {
		return nil, fmt.Errorf("ops: column %s does not accept code upload", colID)
	}
	if u.Guest && !col.Upload.GuestAccess {
		return nil, fmt.Errorf("ops: guest users may not upload code")
	}
	if !conditionsMatch(col.Upload.If, row) {
		return nil, fmt.Errorf("ops: code upload is not allowed against this row")
	}
	datasetURL, err := datalinkFromRow(row, colID)
	if err != nil {
		return nil, err
	}
	workdir, err := e.newWorkDir(u.Name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workdir)

	var plan strings.Builder
	fmt.Fprintf(&plan, "mkdir %s\n", workdir)
	fmt.Fprintf(&plan, "cd %s\n", workdir)
	names, err := unpackPackage(code, format, entry, workdir)
	if err != nil {
		return nil, fmt.Errorf("ops: unpacking uploaded %s package: %w", format, err)
	}
	fmt.Fprintf(&plan, "unpack uploaded %s package (%d file(s): %s)\n", packFormat(format), len(names), strings.Join(names, ", "))
	datasetFile, err := e.fetchDataset(datasetURL, workdir)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&plan, "fetch dataset %s -> %s\n", datasetURL, datasetFile)
	fmt.Fprintf(&plan, "easl-run --sandbox %s %s\n", entry, datasetFile)

	res, err := e.executeEASL(workdir, entry, datasetFile, params)
	if err != nil {
		return nil, err
	}
	res.Operation = "upload:" + entry
	res.BatchPlan = plan.String()
	e.mu.Lock()
	st := e.statLocked(res.Operation)
	st.Runs++
	st.TotalTime += res.Elapsed
	st.TotalOutput += res.TotalOutputBytes()
	st.LastRun = e.cfg.Clock()
	e.mu.Unlock()
	return res, nil
}

// fetchDataset copies the dataset beside the code (on a real deployment
// the engine runs on the file-server host, so this is a local read).
func (e *Engine) fetchDataset(url, workdir string) (string, error) {
	rc, err := e.cfg.Fetch(url)
	if err != nil {
		return "", fmt.Errorf("ops: fetching dataset %s: %w", url, err)
	}
	defer rc.Close()
	u, err := sqltypes.ParseDatalinkURL(url)
	if err != nil {
		return "", err
	}
	name := u.File()
	dst := filepath.Join(workdir, name)
	f, err := os.Create(dst)
	if err != nil {
		return "", err
	}
	if _, err := iofault.Copy(f, rc); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return name, nil
}

// executeEASL runs the entry file under the sandbox with the dataset
// capabilities bound to the working directory.
func (e *Engine) executeEASL(workdir, entry, datasetFile string, params map[string]string) (*Result, error) {
	srcBytes, err := os.ReadFile(filepath.Join(workdir, filepath.FromSlash(entry)))
	if err != nil {
		return nil, fmt.Errorf("ops: entry file %s missing from package", entry)
	}
	prog, err := script.Parse(string(srcBytes))
	if err != nil {
		return nil, err
	}
	// Snapshot the workdir (package contents + dataset) so only files
	// the run creates are reported as outputs.
	preExisting := map[string]bool{}
	err = filepath.Walk(workdir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(workdir, path)
		if err != nil {
			return err
		}
		preExisting[filepath.ToSlash(rel)] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	in := script.New(e.cfg.Limits, hostFuncs(workdir))
	// The paper: "the only restriction is that the initial executable
	// file accepts a filename as a command line parameter".
	in.SetGlobal("filename", datasetFile)
	paramMap := &script.Map{Entries: map[string]script.Value{}}
	for k, v := range params {
		paramMap.Entries[k] = v
	}
	in.SetGlobal("params", paramMap)

	if _, err := in.Run(prog); err != nil {
		return nil, fmt.Errorf("ops: execution failed: %w", err)
	}
	res := &Result{Stdout: in.Output(), Steps: in.Steps()}

	// Collect every file the run created.
	err = filepath.Walk(workdir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(workdir, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if preExisting[rel] {
			return nil
		}
		if info.Size() > 64<<20 {
			return fmt.Errorf("ops: output file %s exceeds 64 MiB", rel)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		res.Files = append(res.Files, OutputFile{Name: rel, Data: data})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(res.Files, func(i, j int) bool { return res.Files[i].Name < res.Files[j].Name })
	return res, nil
}

// hostFuncs builds the capability set for one sandboxed run: dataset
// readers (streaming slices out of TSF files) and file writers confined
// to the working directory — the reproduction of the paper's security
// restrictions ("code must write output to relative filenames").
func hostFuncs(workdir string) map[string]script.HostFunc {
	confine := func(name string) (string, error) {
		if name == "" || strings.HasPrefix(name, "/") || strings.Contains(name, "..") ||
			strings.ContainsAny(name, "\\\x00") {
			return "", fmt.Errorf("ops: path %q escapes the sandbox (relative filenames only)", name)
		}
		return filepath.Join(workdir, filepath.FromSlash(name)), nil
	}
	openDataset := func(name string) (*os.File, error) {
		p, err := confine(name)
		if err != nil {
			return nil, err
		}
		return os.Open(p)
	}
	str := func(v script.Value, what string) (string, error) {
		s, ok := v.(string)
		if !ok {
			return "", fmt.Errorf("ops: %s must be a string", what)
		}
		return s, nil
	}
	num := func(v script.Value, what string) (float64, error) {
		f, ok := v.(float64)
		if !ok {
			return 0, fmt.Errorf("ops: %s must be a number", what)
		}
		return f, nil
	}
	sliceArgs := func(args []script.Value) (*os.File, string, turb.Axis, int, error) {
		if len(args) != 4 {
			return nil, "", 0, 0, fmt.Errorf("ops: want (filename, field, axis, index)")
		}
		name, err := str(args[0], "filename")
		if err != nil {
			return nil, "", 0, 0, err
		}
		field, err := str(args[1], "field")
		if err != nil {
			return nil, "", 0, 0, err
		}
		axisStr, err := str(args[2], "axis")
		if err != nil {
			return nil, "", 0, 0, err
		}
		axis, err := turb.ParseAxis(axisStr)
		if err != nil {
			return nil, "", 0, 0, err
		}
		idxF, err := num(args[3], "index")
		if err != nil {
			return nil, "", 0, 0, err
		}
		f, err := openDataset(name)
		if err != nil {
			return nil, "", 0, 0, err
		}
		return f, field, axis, int(idxF), nil
	}

	return map[string]script.HostFunc{
		// datasetInfo(filename) -> {n, step, time, reynolds, bytes}
		"datasetInfo": func(in *script.Interp, args []script.Value) (script.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("ops: datasetInfo(filename)")
			}
			name, err := str(args[0], "filename")
			if err != nil {
				return nil, err
			}
			f, err := openDataset(name)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			h, err := turb.ReadHeader(f)
			if err != nil {
				return nil, err
			}
			return &script.Map{Entries: map[string]script.Value{
				"n":        float64(h.N),
				"step":     float64(h.Step),
				"time":     h.Time,
				"reynolds": h.Reynolds,
				"bytes":    float64(turb.FileBytes(h.N)),
			}}, nil
		},
		// loadSlice(filename, field, axis, index) -> list of numbers
		"loadSlice": func(in *script.Interp, args []script.Value) (script.Value, error) {
			f, field, axis, idx, err := sliceArgs(args)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			sl, _, err := turb.SliceFromFile(f, field, axis, idx)
			if err != nil {
				return nil, err
			}
			out := &script.List{Elems: make([]script.Value, len(sl.Data))}
			for i, v := range sl.Data {
				out.Elems[i] = float64(v)
			}
			return out, nil
		},
		// sliceStats(filename, field, axis, index) -> {min,max,mean,rms,count}
		"sliceStats": func(in *script.Interp, args []script.Value) (script.Value, error) {
			f, field, axis, idx, err := sliceArgs(args)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			sl, _, err := turb.SliceFromFile(f, field, axis, idx)
			if err != nil {
				return nil, err
			}
			st := sl.Stats()
			return &script.Map{Entries: map[string]script.Value{
				"min": st.Min, "max": st.Max, "mean": st.Mean, "rms": st.RMS,
				"count": float64(st.Count),
			}}, nil
		},
		// writeImage(outname, filename, field, axis, index) -> bytes written
		"writeImage": func(in *script.Interp, args []script.Value) (script.Value, error) {
			if len(args) != 5 {
				return nil, fmt.Errorf("ops: writeImage(outname, filename, field, axis, index)")
			}
			outName, err := str(args[0], "outname")
			if err != nil {
				return nil, err
			}
			outPath, err := confine(outName)
			if err != nil {
				return nil, err
			}
			f, field, axis, idx, err := sliceArgs(args[1:])
			if err != nil {
				return nil, err
			}
			defer f.Close()
			sl, _, err := turb.SliceFromFile(f, field, axis, idx)
			if err != nil {
				return nil, err
			}
			var img []byte
			if strings.HasSuffix(outName, ".ppm") {
				img = sl.PPM()
			} else {
				img = sl.PGM()
			}
			if err := os.MkdirAll(filepath.Dir(outPath), 0o755); err != nil {
				return nil, err
			}
			if err := os.WriteFile(outPath, img, 0o644); err != nil {
				return nil, err
			}
			return float64(len(img)), nil
		},
		// readFile(name) -> content string (confined to the workdir,
		// capped at 8 MiB; lets chained stages consume intermediates)
		"readFile": func(in *script.Interp, args []script.Value) (script.Value, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("ops: readFile(name)")
			}
			name, err := str(args[0], "name")
			if err != nil {
				return nil, err
			}
			p, err := confine(name)
			if err != nil {
				return nil, err
			}
			fi, err := os.Stat(p)
			if err != nil {
				return nil, fmt.Errorf("ops: readFile: %s not found", name)
			}
			if fi.Size() > 8<<20 {
				return nil, fmt.Errorf("ops: readFile: %s exceeds 8 MiB", name)
			}
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			return string(data), nil
		},
		// writeFile(name, content) -> bytes written (relative paths only)
		"writeFile": func(in *script.Interp, args []script.Value) (script.Value, error) {
			if len(args) != 2 {
				return nil, fmt.Errorf("ops: writeFile(name, content)")
			}
			name, err := str(args[0], "name")
			if err != nil {
				return nil, err
			}
			p, err := confine(name)
			if err != nil {
				return nil, err
			}
			var content string
			switch c := args[1].(type) {
			case string:
				content = c
			default:
				return nil, fmt.Errorf("ops: writeFile content must be a string")
			}
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				return nil, err
			}
			if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
				return nil, err
			}
			return float64(len(content)), nil
		},
	}
}

func packFormat(format string) string {
	if format == "" {
		return "plain"
	}
	return format
}
