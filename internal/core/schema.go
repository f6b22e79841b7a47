package core

// TurbulenceSchema is the paper's five-table archive schema ("5 tables
// used for the Turbulence database"): AUTHOR holds the people, SIMULATION
// the metadata identifying each run, and RESULT_FILE / CODE_FILE /
// VISUALISATION_FILE hold the datasets, the post-processing codes and
// the derived visualisations — all as DATALINKs with full SQL/MED
// control, matching the CREATE TABLE slide:
//
//	download_result DATALINK
//	    LINKTYPE URL
//	    FILE LINK CONTROL
//	    READ PERMISSION DB …
//
// Every PRIMARY KEY is itself an index the planner uses (the engine has
// one index structure, a B+tree — sqldb/index.go), so the hyperlinks
// the browse interface is built from — SIMULATION and AUTHOR by key, a
// RESULT_FILE by (FILE_NAME, SIMULATION_KEY) — are point lookups with
// nothing declared for them. The trailing CREATE INDEX statements add
// what the keys do not cover: the foreign-key side of browsing and
// joins (SIMULATION_KEY on the three file tables), the range-heavy
// scientific terms (TIMESTEP windows, CREATED recency) and the DATALINK
// columns, whose indexes serve both the per-render "which column holds
// this URL" equality probe (DLVALUE(?)) and the startup
// reconciliation's IS NOT NULL scan. RESULT_FILE needs no index on
// SIMULATION_KEY alone: the composite (SIMULATION_KEY, TIMESTEP) index
// leads with it, serves the archive's dominant compound shape — "this
// run, this timestep window" — with a single prefix+range scan, answers
// COUNT over it index-only, gives joins and the RESTRICT check
// on SIMULATION_KEY a prefix probe, and costs one tree per archived
// file instead of two.
const TurbulenceSchema = `
CREATE TABLE AUTHOR (
  AUTHOR_KEY   VARCHAR(30) PRIMARY KEY,
  NAME         VARCHAR(100) NOT NULL,
  ORGANISATION VARCHAR(200),
  EMAIL        VARCHAR(100)
);

CREATE TABLE SIMULATION (
  SIMULATION_KEY VARCHAR(30) PRIMARY KEY,
  AUTHOR_KEY     VARCHAR(30) REFERENCES AUTHOR (AUTHOR_KEY),
  TITLE          VARCHAR(200) NOT NULL,
  DESCRIPTION    CLOB,
  GRID_SIZE      INTEGER,
  REYNOLDS       DOUBLE,
  NUM_TIMESTEPS  INTEGER,
  CREATED        TIMESTAMP
);

CREATE TABLE RESULT_FILE (
  FILE_NAME       VARCHAR(100),
  SIMULATION_KEY  VARCHAR(30) NOT NULL REFERENCES SIMULATION (SIMULATION_KEY),
  TIMESTEP        INTEGER,
  MEASUREMENT     VARCHAR(60),
  FILE_FORMAT     VARCHAR(20),
  FILE_SIZE       BIGINT,
  DOWNLOAD_RESULT DATALINK LINKTYPE URL FILE LINK CONTROL INTEGRITY ALL
                  READ PERMISSION DB WRITE PERMISSION BLOCKED
                  RECOVERY YES ON UNLINK RESTORE,
  PRIMARY KEY (FILE_NAME, SIMULATION_KEY)
);

CREATE TABLE CODE_FILE (
  CODE_NAME          VARCHAR(100) PRIMARY KEY,
  SIMULATION_KEY     VARCHAR(30) REFERENCES SIMULATION (SIMULATION_KEY),
  CODE_TYPE          VARCHAR(30),
  DESCRIPTION        VARCHAR(500),
  DOWNLOAD_CODE_FILE DATALINK LINKTYPE URL FILE LINK CONTROL INTEGRITY ALL
                     READ PERMISSION DB WRITE PERMISSION BLOCKED
                     RECOVERY YES ON UNLINK RESTORE
);

CREATE TABLE VISUALISATION_FILE (
  VIS_NAME       VARCHAR(100) PRIMARY KEY,
  SIMULATION_KEY VARCHAR(30) REFERENCES SIMULATION (SIMULATION_KEY),
  DESCRIPTION    VARCHAR(500),
  PREVIEW        BLOB,
  DOWNLOAD_VIS   DATALINK LINKTYPE URL FILE LINK CONTROL INTEGRITY ALL
                 READ PERMISSION DB WRITE PERMISSION BLOCKED
                 RECOVERY YES ON UNLINK RESTORE
);

CREATE INDEX IDX_CODE_SIM ON CODE_FILE (SIMULATION_KEY);
CREATE INDEX IDX_VIS_SIM ON VISUALISATION_FILE (SIMULATION_KEY);

CREATE INDEX IDX_RESULT_TIMESTEP ON RESULT_FILE (TIMESTEP);
CREATE INDEX IDX_RESULT_SIM_TS ON RESULT_FILE (SIMULATION_KEY, TIMESTEP);
CREATE INDEX IDX_SIM_CREATED ON SIMULATION (CREATED);

CREATE INDEX IDX_RESULT_DL ON RESULT_FILE (DOWNLOAD_RESULT);
CREATE INDEX IDX_CODE_DL ON CODE_FILE (DOWNLOAD_CODE_FILE);
CREATE INDEX IDX_VIS_DL ON VISUALISATION_FILE (DOWNLOAD_VIS);
`
