/* Compiled enumeration kernel: the histogram of the frequency-s mex
 * statistics over all partitions of n.
 *
 * Same contract as mexmoments._pure.mex_value_counts, which the tests run
 * against this module: the same validation and error types, and row A-1
 * indexed by m where the value is A + m*M.  The walk recurses over the
 * parts >= 3 only, p(n) - p(n-2) nodes.  At a node the remainder R is c2
 * twos and R - 2*c2 ones, c2 = 0..R/2, and each row takes those R/2 + 1
 * partitions at once: 1 stays in its chain while c2 <= (R - s)/2, 2
 * while c2 >= s, so the c2 that break the chain at 1 or 2 are whole
 * intervals, and the rest share the cell of the fixed tail of parts >= 3.
 * The walk runs on C integers with the interpreter lock released; int64
 * counters hold every count up to ENUMERATION_LIMIT (p(300) is about
 * 9.3e15).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>

#define ENUMERATION_LIMIT 300

typedef struct {
    int n, s, M;
    int live;        /* rows with residue A <= n; the rest never move */
    Py_ssize_t width;
    int *freq;       /* freq[k] = multiplicity of part k, k = 3..n */
    int64_t *counts; /* live rows of width cells */
} walk_state;

/* The partitions of the node: its parts >= 3 in freq, then c2 twos and
 * remaining - 2*c2 ones for every c2 = 0..remaining/2. */
static void visit(const walk_state *w, int remaining)
{
    const int64_t choices = remaining / 2 + 1;
    const int64_t with_ones = remaining >= w->s ? (remaining - w->s) / 2 + 1 : 0;
    for (int a0 = 0; a0 < w->live; a0++) {
        int64_t *row = w->counts + a0 * w->width;
        int64_t alive = choices; /* how many c2 keep the chain unbroken up to k */
        int k = a0 + 1, m = 0;
        if (k == 1) {
            row[0] += alive - with_ones;
            alive = with_ones;
            m = 1;
            k += w->M;
        }
        if (k == 2) {
            int64_t with_twos = alive > w->s ? alive - w->s : 0;
            row[m] += alive - with_twos;
            alive = with_twos;
            m++;
            k += w->M;
        }
        if (alive) {
            while (k <= w->n && w->freq[k] >= w->s) {
                k += w->M;
                m++;
            }
            row[m] += alive;
        }
    }
}

static void walk(walk_state *w, int remaining, int max_part)
{
    for (int part = remaining < max_part ? remaining : max_part; part >= 3; part--) {
        w->freq[part]++;
        walk(w, remaining - part, part);
        w->freq[part]--;
    }
    visit(w, remaining);
}

/* M rows of width cells: the live rows from the counters, every other row
 * with all `total` partitions at m = 0. */
static PyObject *build_rows(const walk_state *w, int64_t total)
{
    PyObject *rows = PyList_New(w->M);
    if (rows == NULL)
        return NULL;
    for (int a0 = 0; a0 < w->M; a0++) {
        PyObject *row = PyList_New(w->width);
        if (row == NULL)
            goto fail;
        PyList_SET_ITEM(rows, a0, row);
        for (Py_ssize_t m = 0; m < w->width; m++) {
            int64_t c = a0 < w->live ? w->counts[a0 * w->width + m] : (m == 0 ? total : 0);
            PyObject *item = PyLong_FromLongLong(c);
            if (item == NULL)
                goto fail;
            PyList_SET_ITEM(row, m, item);
        }
    }
    return rows;
fail:
    Py_DECREF(rows);
    return NULL;
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
    w.width = w.n / w.M + 2;
    w.freq = calloc((size_t)w.n + 2, sizeof(int));
    /* One spare cell, so that n = 0 (no live row) still gets a block. */
    w.counts = calloc((size_t)w.live * w.width + 1, sizeof(int64_t));
    if (w.freq == NULL || w.counts == NULL) {
        free(w.freq);
        free(w.counts);
        return PyErr_NoMemory();
    }
    Py_BEGIN_ALLOW_THREADS
    walk(&w, w.n, w.n);
    Py_END_ALLOW_THREADS

    int64_t total = 1; /* n = 0: just the empty partition */
    if (w.live) {
        total = 0;
        for (Py_ssize_t m = 0; m < w.width; m++)
            total += w.counts[m];
    }
    PyObject *rows = build_rows(&w, total);
    free(w.freq);
    free(w.counts);
    return rows;
}

static PyMethodDef speed_methods[] = {
    {"mex_value_counts", (PyCFunction)(void (*)(void))mex_value_counts,
     METH_VARARGS | METH_KEYWORDS,
     "Histogram the frequency-s mex statistics over all partitions of n.\n\n"
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
