/* Compiled enumeration kernel: the histograms of the frequency-s mex
 * statistics over the partitions of every n' = 0..n, from one walk.
 *
 * Same contract as mexmoments._pure.mex_value_counts, which the tests run
 * against this module: the same validation and error types, and row A-1
 * one flat list of the blocks of n' = 0..n, n'/M + 2 cells each, cell m
 * counting the partitions of n' whose value is A + m*M.
 *
 * A partition is a tail of parts >= 3, of sum t, plus c2 twos and
 * R - 2*c2 ones, R = n' - t.  The walk visits each tail with t <= n once,
 * p(n) - p(n-2) nodes.  The ones and twos break a row's chain at 1 or 2
 * for whole intervals of c2 that depend on R alone (1 stays while
 * c2 <= (R - s)/2, 2 while c2 >= s); the c2 left alive go to the cell
 * where the tail breaks the chain.  So the walk counts tails per (t, cell)
 * of each row, and each block comes from short convolutions over t with
 * the counts of c2 per R.  A node follows only the chains that start at
 * its saturated parts k <= M+2 (the first place >= 3 of exactly one row);
 * every other row keeps its first cell, so a node costs the same for any
 * M.  The walk runs on C integers with the interpreter lock released;
 * int64 counters hold every count up to ENUMERATION_LIMIT (p(300) is about
 * 9.3e15).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ENUMERATION_LIMIT 300

typedef struct {
    int n, s, M;
    int live;            /* rows with residue A <= n; the rest hold p(n') at m = 0 */
    Py_ssize_t stride;   /* n + 1: one count per tail sum t */
    Py_ssize_t cells;    /* n/M + 2 */
    int *freq;           /* freq[k] = multiplicity of part k, k = 3..n */
    int64_t *nodes;      /* tails of parts >= 3 per sum t */
    int64_t *breaks;     /* per live row, cells x stride: tails of sum t that
                          * break the chain past its first place >= 3 */
    int64_t **follow_at; /* follow_at[k], k = 3..min(M+2, n): in the row
                          * whose chain k starts, the cell after k at t = 0 */
    int *followed;       /* saturated parts k <= M+2 of the current tail */
    int nfollowed;
} walk_state;

static void walk(walk_state *w, int t, int max_part)
{
    w->nodes[t]++;
    for (int i = 0; i < w->nfollowed; i++) {
        int k = w->followed[i];
        int64_t *cell = w->follow_at[k] + t;
        while (k <= w->n - w->M && w->freq[k + w->M] >= w->s) {
            k += w->M;
            cell += w->stride;
        }
        (*cell)++;
    }
    for (int part = w->n - t < max_part ? w->n - t : max_part; part >= 3; part--) {
        int follow = ++w->freq[part] == w->s && w->follow_at[part] != NULL;
        if (follow)
            w->followed[w->nfollowed++] = part;
        walk(w, t + part, part);
        w->nfollowed -= follow;
        w->freq[part]--;
    }
}

/* The index m of row A's first place >= 3. */
static int first_cell(int A, int M)
{
    return A < 3 ? (3 - A + M - 1) / M : 0;
}

/* Add sign * sum_t xs[t] * ys[n' - t] to `cell` of each block n' of row. */
static void add(const walk_state *w, const Py_ssize_t *offsets, int64_t *row, Py_ssize_t cell,
                const int64_t *xs, const int64_t *ys, int64_t sign)
{
    int lo = 0;
    while (lo <= w->n && xs[lo] == 0)
        lo++;
    /* The block of n' has n'/M + 2 cells; a cell past it counts nothing. */
    int64_t j0 = (int64_t)(cell - 1) * w->M;
    for (int j = j0 > lo ? (int)j0 : lo; j <= w->n; j++) {
        int64_t v = 0;
        for (int t = lo; t <= j; t++)
            v += xs[t] * ys[j - t];
        row[offsets[j] + cell] += sign * v;
    }
}

/* The c2 per remainder R that the ones and twos put in cells 0 and 1 of
 * row A (fixed[c] == NULL: none), and those they leave alive for the tail.
 * seq holds choices, with_ones and the derived counts, stride each. */
enum { CHOICES, WITH_ONES, ONES_BREAK, ONES_TWOS, ONES_ONLY, TWOS, TWOS_BREAK, NSEQ };

static const int64_t *row_class(const walk_state *w, const int64_t *seq, int A,
                                const int64_t *fixed[2])
{
    const Py_ssize_t st = w->stride;
    fixed[0] = fixed[1] = NULL;
    if (A == 1) {
        fixed[0] = seq + ONES_BREAK * st;
        if (w->M > 1)
            return seq + WITH_ONES * st;
        fixed[1] = seq + ONES_ONLY * st;
        return seq + ONES_TWOS * st;
    }
    if (A == 2) {
        fixed[0] = seq + TWOS_BREAK * st;
        return seq + TWOS * st;
    }
    return seq + CHOICES * st;
}

static void fill_row(const walk_state *w, const Py_ssize_t *offsets, const int64_t *seq,
                     int A, int64_t *row)
{
    const int64_t *fixed[2];
    const int64_t *alive = row_class(w, seq, A, fixed);
    for (int c = 0; c < 2; c++)
        if (fixed[c] != NULL)
            add(w, offsets, row, c, w->nodes, fixed[c], 1);
    add(w, offsets, row, first_cell(A, w->M), w->nodes, alive, 1);
}

static PyObject *to_list(const int64_t *row, Py_ssize_t size)
{
    PyObject *list = PyList_New(size);
    if (list == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < size; i++) {
        PyObject *item = PyLong_FromLongLong(row[i]);
        if (item == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, item);
    }
    return list;
}

/* M rows of flat blocks: the live rows from the walk's counts, every other
 * row a copy of `plain`, p(n') at m = 0 of each block. */
static PyObject *build_rows(const walk_state *w)
{
    const Py_ssize_t st = w->stride;
    Py_ssize_t *offsets = malloc(((size_t)st + 1) * sizeof(Py_ssize_t));
    int64_t *seq = malloc((size_t)NSEQ * st * sizeof(int64_t));
    if (offsets == NULL || seq == NULL) {
        free(offsets);
        free(seq);
        return PyErr_NoMemory();
    }
    offsets[0] = 0;
    for (int j = 0; j <= w->n; j++)
        offsets[j + 1] = offsets[j] + j / w->M + 2;
    const Py_ssize_t size = offsets[st];
    for (int R = 0; R <= w->n; R++) {
        int64_t choices = R / 2 + 1;
        int64_t with_ones = R >= w->s ? (R - w->s) / 2 + 1 : 0;
        int64_t ones_twos = with_ones > w->s ? with_ones - w->s : 0;
        int64_t twos = choices > w->s ? choices - w->s : 0;
        seq[CHOICES * st + R] = choices;
        seq[WITH_ONES * st + R] = with_ones;
        seq[ONES_BREAK * st + R] = choices - with_ones;
        seq[ONES_TWOS * st + R] = ones_twos;
        seq[ONES_ONLY * st + R] = with_ones - ones_twos;
        seq[TWOS * st + R] = twos;
        seq[TWOS_BREAK * st + R] = choices - twos;
    }

    PyObject *rows = NULL, *plain = NULL;
    int64_t *row = calloc((size_t)size, sizeof(int64_t));
    int64_t *plain_row = calloc((size_t)size, sizeof(int64_t));
    if (row == NULL || plain_row == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    fill_row(w, offsets, seq, 3, plain_row);
    plain = to_list(plain_row, size);
    rows = plain == NULL ? NULL : PyList_New(w->M);
    if (rows == NULL)
        goto done;
    for (int a0 = 0; a0 < w->M; a0++) {
        PyObject *list;
        if (a0 < w->live) {
            const int A = a0 + 1, m0 = first_cell(A, w->M);
            const int64_t *fixed[2];
            const int64_t *alive = row_class(w, seq, A, fixed);
            const int64_t *tails = w->breaks + (size_t)a0 * w->cells * st;
            if (A < 3) {
                memset(row, 0, (size_t)size * sizeof(int64_t));
                fill_row(w, offsets, seq, A, row);
            } else {
                memcpy(row, plain_row, (size_t)size * sizeof(int64_t));
            }
            for (Py_ssize_t c = m0 + 1; c < w->cells; c++) {
                add(w, offsets, row, c, tails + c * st, alive, 1);
                add(w, offsets, row, m0, tails + c * st, alive, -1);
            }
            list = to_list(row, size);
        } else {
            list = PyList_GetSlice(plain, 0, size);
        }
        if (list == NULL) {
            Py_CLEAR(rows);
            goto done;
        }
        PyList_SET_ITEM(rows, a0, list);
    }
done:
    Py_XDECREF(plain);
    free(row);
    free(plain_row);
    free(offsets);
    free(seq);
    return rows;
}

static PyObject *mex_value_counts(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "s", "M", NULL};
    walk_state w = {0};
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iii:mex_value_counts", kwlist,
                                     &w.n, &w.s, &w.M))
        return NULL;
    if (w.n < 0)
        return PyErr_Format(PyExc_ValueError, "n must be >= 0");
    if (w.s < 1)
        return PyErr_Format(PyExc_ValueError, "s must be >= 1");
    if (w.M < 1)
        return PyErr_Format(PyExc_ValueError, "M must be >= 1");
    if (w.n > ENUMERATION_LIMIT)
        return PyErr_Format(PyExc_ValueError,
                            "refusing to enumerate partitions of n=%d (limit %d)",
                            w.n, ENUMERATION_LIMIT);

    w.live = w.M < w.n ? w.M : w.n;
    w.stride = (Py_ssize_t)w.n + 1;
    w.cells = w.n / w.M + 2;
    w.freq = calloc((size_t)w.n + 1, sizeof(int));
    w.nodes = calloc((size_t)w.stride, sizeof(int64_t));
    /* One spare cell: with no live row (n = 0) calloc(0) may return NULL. */
    w.breaks = calloc((size_t)w.live * w.cells * w.stride + 1, sizeof(int64_t));
    w.follow_at = calloc((size_t)w.n + 1, sizeof(int64_t *));
    w.followed = calloc((size_t)w.n + 1, sizeof(int));
    PyObject *rows = NULL;
    if (w.freq == NULL || w.nodes == NULL || w.breaks == NULL || w.follow_at == NULL ||
        w.followed == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* Part k in 3..M+2 is the first place >= 3 of row (k-1) mod M. */
    for (int k = 3; k <= w.n && k - 2 <= w.M; k++) {
        int a0 = (k - 1) % w.M;
        w.follow_at[k] = w.breaks + ((size_t)a0 * w.cells + first_cell(a0 + 1, w.M) + 1) * w.stride;
    }
    Py_BEGIN_ALLOW_THREADS
    walk(&w, 0, w.n);
    Py_END_ALLOW_THREADS
    rows = build_rows(&w);
done:
    free(w.freq);
    free(w.nodes);
    free(w.breaks);
    free(w.follow_at);
    free(w.followed);
    return rows;
}

static PyMethodDef speed_methods[] = {
    {"mex_value_counts", (PyCFunction)(void (*)(void))mex_value_counts,
     METH_VARARGS | METH_KEYWORDS,
     "Histogram the frequency-s mex statistics over the partitions of every\n"
     "n' = 0..n, from one walk.\n\n"
     "Same contract as mexmoments._pure.mex_value_counts."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef speed_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_speed",
    .m_doc = "Compiled enumeration kernel.",
    .m_size = -1,
    .m_methods = speed_methods,
};

PyMODINIT_FUNC PyInit__speed(void)
{
    PyObject *module = PyModule_Create(&speed_module);
    if (module != NULL && PyModule_AddIntConstant(module, "ENUMERATION_LIMIT",
                                                  ENUMERATION_LIMIT) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
